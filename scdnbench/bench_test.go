package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"reflect"
	"testing"
	"time"
)

func TestSmallFetchMixIsSeedDeterministic(t *testing.T) {
	w := newSmallFetch()
	draw := func(seed int64, n int) []smallReq {
		next := w.requests(rand.New(rand.NewSource(seed)), 3)
		out := make([]smallReq, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a, b, c := draw(7, 5000), draw(7, 5000), draw(8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same request sequence")
	}
	counts := make([]int, w.datasets)
	var ranges, multipart int
	for _, r := range a {
		counts[r.d]++
		if r.edge < 0 || r.edge >= 3 {
			t.Fatalf("edge %d out of range", r.edge)
		}
		switch {
		case len(r.rs) == 1:
			ranges++
		case len(r.rs) > 1:
			multipart++
			for i, x := range r.rs {
				if x.n < 1 || x.off+x.n > w.size {
					t.Fatalf("range %+v outside the dataset", x)
				}
				if i > 0 && r.rs[i-1].off+r.rs[i-1].n >= x.off {
					t.Fatalf("multipart ranges %+v overlap or touch", r.rs)
				}
			}
		}
	}
	// Zipf popularity: the head is hot and rank order holds at the top.
	if counts[0] <= counts[1] || counts[1] <= counts[4] || counts[0] < len(a)/10 {
		t.Fatalf("dataset counts are not Zipf-skewed: %v", counts[:8])
	}
	if f := float64(ranges) / float64(len(a)); f < 0.08 || f > 0.12 {
		t.Fatalf("single-range share %.3f, want about 0.10", f)
	}
	if f := float64(multipart) / float64(len(a)); f < 0.01 || f > 0.03 {
		t.Fatalf("multipart share %.3f, want about 0.02", f)
	}
}

func TestLargeMixIsSeedDeterministic(t *testing.T) {
	w := newLargeSegments()
	draw := func(seed int64) []largeReq {
		next := w.requests(rand.New(rand.NewSource(seed)), 3)
		out := make([]largeReq, 2000)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a := draw(3)
	if !reflect.DeepEqual(a, draw(3)) {
		t.Fatal("the same seed drew different request sequences")
	}
	kinds := map[int]int{}
	for _, q := range a {
		kinds[q.kind]++
		switch q.kind {
		case largeRange:
			if q.r.off < 0 || q.r.off+q.r.n > w.size || q.r.n < 64<<10 {
				t.Fatalf("range %+v outside the dataset", q.r)
			}
		case largeWalk:
			if q.first < 0 || q.count < 1 || q.first+q.count > w.segments() {
				t.Fatalf("walk [%d,+%d) outside %d segments", q.first, q.count, w.segments())
			}
		}
	}
	// The deck holds the shares exactly over every 2000 requests.
	if kinds[largeWhole] != 40 || kinds[largeRange] != 1360 || kinds[largeWalk] != 600 {
		t.Fatalf("mix %v, want 40 whole, 1360 ranges, 600 walks", kinds)
	}
	if c := zipfCounts(6, 2.5, 100); !reflect.DeepEqual(c, []int{77, 14, 5, 2, 1, 1}) {
		t.Fatalf("Zipf deck %v", c)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "pool", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "ttfb", Start: 10, End: 30},
		{ID: 4, Parent: 1, Name: "body", Start: 30, End: 90},
		{ID: 5, Parent: 4, Name: "verify", Start: 30, End: 45},
		// Overlapping children count once; a child spilling past its
		// parent is clipped.
		{ID: 6, Parent: 4, Name: "verify", Start: 40, End: 50},
		{ID: 7, Parent: 4, Name: "verify", Start: 85, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - 90,
		"pool":    10,
		"ttfb":    20,
		"body":    60 - (20 + 5),
		"verify":  15 + 10 + 35,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if c := covered(span{Start: 0, End: 10}, nil); c != 0 {
		t.Fatalf("no children covered %d", c)
	}
}

func TestTracerRequestSpans(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	rt := &reqTrace{getConn: at(10), gotConn: at(12), firstByte: at(40), bodyEnd: at(90), verify: 5 * time.Microsecond}
	tr.request(at(0), at(1), at(10), at(95), rt)
	self := selfTimes(tr.spans)
	total := int64(0)
	for _, v := range self {
		total += v
	}
	// Self times partition the root span exactly.
	if want := int64(95 * time.Microsecond); total != want {
		t.Fatalf("self times sum to %d ns, want %d", total, want)
	}
	if self["client.verify"] != int64(5*time.Microsecond) {
		t.Fatalf("verify self time %d", self["client.verify"])
	}
}

func TestLadderCapacityOnSyntheticCurve(t *testing.T) {
	const capacity = 8000.0
	limit := 10 * time.Millisecond
	// An M/M/1-like curve: the tail grows without bound as the rate
	// nears capacity; past it the backlog grows.
	probe := func(rate float64) *phase {
		p := &phase{rate: rate, dur: time.Second}
		p99 := 0.001 / math.Max(1e-9, 1-rate/capacity)
		if rate >= capacity {
			p.backlog = int(rate) // growing queue
		}
		// 1.5% of the samples in every quarter of the step are slow.
		for i := 0; i < 4000; i++ {
			lat := 0.0005
			if i >= 3940 {
				lat = p99
			}
			p.samples = append(p.samples, sample{at: float32(i%4) / 4, lat: float32(lat)})
		}
		return p
	}
	// The rate whose synthetic tail equals the limit.
	want := capacity * (1 - 0.001/limit.Seconds())
	var rates, tails []float64
	for r := 5000.0; r <= 10000; r += 500 {
		rates = append(rates, r)
		tails = append(tails, stepTail(probe(r), nil, limit, 2))
	}
	got := ladderCapacity(rates, tails, limit.Seconds())
	if math.Abs(got-want) > 100 {
		t.Fatalf("capacity %.1f, want %.1f", got, want)
	}
	// One rung spoiled by noise below capacity moves the estimate by
	// less than a rung.
	tails[2] = failTail * limit.Seconds()
	if noisy := ladderCapacity(rates, tails, limit.Seconds()); math.Abs(noisy-want) > 500 {
		t.Fatalf("one spoiled rung moved capacity from %.1f to %.1f", want, noisy)
	}
	// A failed operation or an aborted phase fails its rung.
	p := probe(1000)
	p.samples[0].failed = true
	if stepTail(p, nil, limit, 2) <= limit.Seconds() {
		t.Fatal("a phase with a failure met the limit")
	}
	p = probe(1000)
	p.aborted = true
	if stepTail(p, nil, limit, 2) <= limit.Seconds() {
		t.Fatal("an aborted phase met the limit")
	}
	// Every rung missing: scaled below the lowest; none missing: the top.
	if c := ladderCapacity([]float64{100, 200}, []float64{0.02, 0.03}, 0.01); c != 50 {
		t.Fatalf("all-missing ladder gave %v, want 50", c)
	}
	if c := ladderCapacity([]float64{100, 200}, []float64{0.001, 0.002}, 0.01); c != 200 {
		t.Fatalf("all-meeting ladder gave %v, want 200", c)
	}
}

func TestMonotoneFit(t *testing.T) {
	got := monotoneFit([]float64{1, 3, 2, 4, 0, 6})
	want := []float64{1, 2.5, 2.5, 2.5, 2.5, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fit %v, want %v", got, want)
	}
}

func TestTail(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	// 100 samples: the 99th percentile has only one beyond it, so the
	// tail is the highest value with ten beyond: the 90th.
	v, pct, ok := d.tail()
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	for i := 101; i <= 5000; i++ {
		d = append(d, float64(i))
	}
	if v, pct, _ := d.tail(); v != 4950 || pct != 99 {
		t.Fatalf("tail %v at p%v, want 4950 at p99", v, pct)
	}
	if _, _, ok := d[:10].tail(); ok {
		t.Fatal("ten samples gave a tail")
	}
	if v := d[:100].quantile(0.9); v != 90 {
		t.Fatalf("90th percentile of 1..100 is %v, want 90", v)
	}
	if v := d[:1].quantile(0.9); v != 1 {
		t.Fatalf("90th percentile of one sample is %v", v)
	}
}

func TestReconcileDiffs(t *testing.T) {
	exp := []expectation{
		exact("fetches", series("fetch"), 10),
		exact("served", series("local", "peer", "-peer_in"), 10),
		{what: "with repairs", got: series("fetch_all"), want: 10,
			extra: func(d counters) float64 { return d["repairs"] }},
	}
	d := counters{"fetch": 10, "local": 7, "peer": 5, "peer_in": 2, "fetch_all": 12, "repairs": 2}
	if bad := mismatches(exp, d); len(bad) != 0 {
		t.Fatalf("unexpected mismatches %v", bad)
	}
	d["fetch"], d["fetch_all"] = 9, 13
	bad := mismatches(exp, d)
	if len(bad) != 2 {
		t.Fatalf("mismatches %v, want fetches and with repairs", bad)
	}
	d["fetch_all"] = 9 // below the benchmark's own count
	if bad := mismatches(exp, d); len(bad) != 2 {
		t.Fatalf("mismatches %v", bad)
	}
}

func TestSettleWaitsForLaggingCounters(t *testing.T) {
	exp := []expectation{exact("fetches", series("fetch"), 10)}
	calls := 0
	lagging := func(context.Context) (counters, error) {
		calls++
		return counters{"fetch": float64(min(10, 7+calls))}, nil
	}
	_, bad, err := settle(context.Background(), exp, 2*time.Second, lagging)
	if err != nil || len(bad) != 0 || calls != 3 {
		t.Fatalf("settle: bad %v err %v after %d reads, want OK after 3", bad, err, calls)
	}
	stuck := func(context.Context) (counters, error) { return counters{"fetch": 9}, nil }
	start := time.Now()
	_, bad, _ = settle(context.Background(), exp, 100*time.Millisecond, stuck)
	if len(bad) != 1 || time.Since(start) < 100*time.Millisecond {
		t.Fatalf("a stuck counter reconciled: %v", bad)
	}
}

// response builds a fetch response around body.
func response(status int, body []byte, length int64, hdr map[string]string) *http.Response {
	h := http.Header{}
	for k, v := range hdr {
		h.Set(k, v)
	}
	return &http.Response{StatusCode: status, Status: fmt.Sprint(status), Header: h,
		ContentLength: length, Body: io.NopCloser(bytes.NewReader(body))}
}

func TestVerifierRejectsBadResponses(t *testing.T) {
	const size = 1 << 20 // periodic: exercises the windowed check
	exp, err := newExpected(seededID(4), size)
	if err != nil {
		t.Fatal(err)
	}
	good := seededBytes(seededID(4), size)
	if n, err := checkResponse(response(200, good, size, nil), exp, size, nil, nil); err != nil || n != size {
		t.Fatalf("good whole body: %d, %v", n, err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[size-5] ^= 1
	if _, err := checkResponse(response(200, corrupt, size, nil), exp, size, nil, nil); !errors.Is(err, errCorrupt) {
		t.Fatalf("corrupt byte: %v", err)
	}
	if _, err := checkResponse(response(200, good[:size-1], size, nil), exp, size, nil, nil); !errors.Is(err, errShortBody) {
		t.Fatalf("short body: %v", err)
	}
	long := append(append([]byte(nil), good...), 0)
	if _, err := checkResponse(response(200, long, size, nil), exp, size, nil, nil); !errors.Is(err, errLongBody) {
		t.Fatalf("long body: %v", err)
	}
	if _, err := checkResponse(response(200, good, size-1, nil), exp, size, nil, nil); err == nil {
		t.Fatal("wrong Content-Length accepted")
	}
	if _, err := checkResponse(response(206, good, size, nil), exp, size, nil, nil); err == nil {
		t.Fatal("wrong status accepted")
	}

	// Single range: status, Content-Range and bytes.
	r := byteRange{off: 5000, n: 70000}
	part := good[r.off : r.off+r.n]
	hdr := map[string]string{"Content-Range": r.contentRange(size)}
	if _, err := checkResponse(response(206, part, r.n, hdr), exp, size, []byteRange{r}, nil); err != nil {
		t.Fatalf("good range: %v", err)
	}
	bad := map[string]string{"Content-Range": byteRange{5001, r.n}.contentRange(size)}
	if _, err := checkResponse(response(206, part, r.n, bad), exp, size, []byteRange{r}, nil); err == nil {
		t.Fatal("wrong Content-Range accepted")
	}
	shifted := good[r.off+1 : r.off+1+r.n]
	if _, err := checkResponse(response(206, shifted, r.n, hdr), exp, size, []byteRange{r}, nil); !errors.Is(err, errCorrupt) {
		t.Fatalf("shifted range body: %v", err)
	}

	// Multipart: every part's header and bytes.
	rs := []byteRange{{10, 100}, {4000, 9000}}
	mp := func(body [][]byte) *http.Response {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for i, x := range rs {
			pw, _ := mw.CreatePart(textproto.MIMEHeader{"Content-Range": {x.contentRange(size)}})
			pw.Write(body[i])
		}
		mw.Close()
		return response(206, buf.Bytes(), int64(buf.Len()),
			map[string]string{"Content-Type": "multipart/byteranges; boundary=" + mw.Boundary()})
	}
	parts := [][]byte{good[10:110], good[4000:13000]}
	if n, err := checkResponse(mp(parts), exp, size, rs, nil); err != nil || n != 9100 {
		t.Fatalf("good multipart: %d, %v", n, err)
	}
	badPart := [][]byte{good[10:110], append(append([]byte(nil), good[4000:12999]...), 0)}
	badPart[1][len(badPart[1])-1] = good[12999] ^ 0xff
	if _, err := checkResponse(mp(badPart), exp, size, rs, nil); !errors.Is(err, errCorrupt) {
		t.Fatalf("corrupt multipart part: %v", err)
	}
	if _, err := checkResponse(mp([][]byte{good[10:110], good[4000:12000]}), exp, size, rs, nil); !errors.Is(err, errShortBody) {
		t.Fatalf("short multipart part: %v", err)
	}
}

func TestOpaqueDownloadCheck(t *testing.T) {
	src := sourceBytes(bytes.Repeat([]byte("scdn"), 1000))
	w := &verifyingWriterAt{src: src}
	if _, err := w.WriteAt(src[100:200], 100); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), src[200:300]...)
	bad[0] ^= 1
	if _, err := w.WriteAt(bad, 200); !errors.Is(err, errCorrupt) || !w.bad {
		t.Fatalf("corrupt write: %v", err)
	}
	if _, err := (&verifyingWriterAt{src: src}).WriteAt(src[:10], int64(len(src))-5); err == nil {
		t.Fatal("write past the source accepted")
	}
}

func TestPeriodicExpectationMatchesGenerator(t *testing.T) {
	const size = 3<<20 + 12345
	exp, err := newExpected(seededID(2), size)
	if err != nil {
		t.Fatal(err)
	}
	if exp.period != payloadPeriod || int64(len(exp.win)) != payloadPeriod+readBufSize {
		t.Fatalf("period %d window %d", exp.period, len(exp.win))
	}
	full := seededBytes(seededID(2), size)
	for _, off := range []int64{0, 1, 4095, 4096, 1 << 20, size - readBufSize} {
		if !exp.match(full[off:off+readBufSize], off) {
			t.Fatalf("window mismatch at %d", off)
		}
	}
	if exp.match(full[:10], size-5) {
		t.Fatal("match past the end")
	}
}

func TestSelectWindowsSkipsStolenTime(t *testing.T) {
	start := time.Unix(1000, 0)
	// Steal counter samples every 20 ms: the middle of the second second
	// of the phase lost half its CPU time to other guests.
	m := &stealMonitor{}
	var steal, total uint64
	for i := 0; i <= 200; i++ {
		m.at = append(m.at, start.Add(time.Duration(i)*stealSamplePeriod))
		m.st = append(m.st, cpuStat{total - steal, 0, 0, 0, 0, 0, 0, steal})
		m.cpu = append(m.cpu, time.Duration(i)*time.Millisecond)
		total += 4
		if i >= 55 && i < 95 {
			steal += 2
		}
	}
	p := &phase{start: start, dur: 4 * time.Second}
	for i := 0; i < 400; i++ {
		lat := 0.001
		if i >= 100 && i < 200 {
			lat = 0.050 // slow because the host took the CPU
		}
		p.samples = append(p.samples, sample{at: float32(i) / 100, lat: float32(lat)})
	}
	sel := p.selectWindows(m, time.Second, false, 0)
	if sel.total != 4 || sel.clean != 3 || len(sel.windows) != 3 {
		t.Fatalf("selection %d/%d clean, %d kept; want 3/4, 3", sel.clean, sel.total, len(sel.windows))
	}
	if v, _, _ := sel.samples().allLatencies().tail(); v != float64(float32(0.001)) {
		t.Fatalf("tail over clean windows %v, want 0.001", v)
	}
	// The process used 1 ms of CPU per 20 ms sample: 50 ms per window.
	if c := sel.samples().cpu; c != 150*time.Millisecond {
		t.Fatalf("CPU over the clean windows %v, want 150ms", c)
	}
	if v := sel.groupedTail(classRead, 3); v != float64(float32(0.001)) {
		t.Fatalf("grouped tail %v", v)
	}
	// With every window stolen from, the least-stolen third is kept.
	for i := range m.st {
		m.st[i][stealField] = uint64(i) * 10
	}
	if sel := p.selectWindows(m, time.Second, false, 0); sel.clean != 0 || len(sel.windows) != 1 {
		t.Fatalf("all-stolen selection kept %d windows (clean %d), want 1", len(sel.windows), sel.clean)
	}
	// A minimum sample count adds the next least-stolen windows.
	if sel := p.selectWindows(m, time.Second, false, 150); len(sel.windows) != 2 || len(sel.samples().samples) != 200 {
		t.Fatalf("selection for 150 samples kept %d windows, %d samples; want 2, 200",
			len(sel.windows), len(sel.samples().samples))
	}
}
