package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// largeSegments moves large datasets: 64 MiB seeded datasets stored as
// 4 MiB segments, a whole / unaligned-range / segment-walk mix with
// Zipf-skewed dataset choice, and a per-edge quota of half the working
// set, so both warm sendfile serves and MaterializeSegment fills stay on
// the path. Bytes, segment I/O, eviction and fadvise dominate. The three
// hottest datasets fit in the quota with room to spare: with six
// datasets they filled it exactly, every cold read evicted a hot
// segment, and two thirds of all reads waited on a fill, which made the
// run measure the host's disk writes.
type largeSegments struct {
	datasets int
	size     int64
	segSize  int64
	exp      []*expected

	fetches, ranged, segReqs, units atomic.Int64
}

func newLargeSegments() *largeSegments {
	return &largeSegments{datasets: 8, size: 64 << 20, segSize: 4 << 20}
}

func (w *largeSegments) prepare() error {
	for d := 0; d < w.datasets; d++ {
		e, err := newExpected(seededID(d), w.size)
		if err != nil {
			return err
		}
		w.exp = append(w.exp, e)
	}
	return nil
}

func (w *largeSegments) segments() int64 { return storage.SegmentCount(w.size, w.segSize) }

func (w *largeSegments) start(b *bench) (*env, error) {
	e, err := newEnv(server.ClusterConfig{
		Nodes: 3, Users: 8, Datasets: w.datasets, DatasetBytes: w.size,
		Seed: b.seed, PullThrough: true,
		SegmentSize: w.segSize, SegmentThreshold: w.segSize,
		StoreQuota: int64(w.datasets) * w.size / 2,
		Sweep:      server.SweeperConfig{ReplicationTarget: 2},
	}, storeDir(b.buildDir, "large-segments"), b.slots)
	if err != nil {
		return nil, err
	}
	// Warm: every edge reads the two most popular datasets whole.
	ctx := context.Background()
	for i := range e.urls {
		for d := 0; d < 2; d++ {
			if _, err := w.whole(ctx, e, i, d, nil); err != nil {
				e.close()
				return nil, fmt.Errorf("warm %s on edge %d: %w", seededID(d), i+1, err)
			}
		}
	}
	return e, nil
}

func (w *largeSegments) whole(ctx context.Context, e *env, edge, d int, t *reqTrace) (int64, error) {
	return e.get(ctx, edge, "/v1/fetch/"+string(seededID(d)), "", t, func(resp *http.Response) (int64, error) {
		return checkResponse(resp, w.exp[d], w.size, nil, t)
	})
}

// segment fetches one segment through the segment endpoint.
func (w *largeSegments) segment(ctx context.Context, e *env, edge, d int, seg int64, t *reqTrace) (int64, error) {
	path := "/v1/fetch/" + string(seededID(d)) + "/segments/" + strconv.FormatInt(seg, 10)
	off, extent := seg*w.segSize, storage.SegmentExtent(w.size, w.segSize, seg)
	return e.get(ctx, edge, path, "", t, func(resp *http.Response) (int64, error) {
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("segment status %s, want 200", resp.Status)
		}
		if resp.ContentLength != extent {
			return 0, fmt.Errorf("segment Content-Length %d, want %d", resp.ContentLength, extent)
		}
		return readVerified(resp.Body, w.exp[d], off, extent, t)
	})
}

// Large request kinds.
const (
	largeWhole = iota
	largeRange
	largeWalk
)

// largeReq is one drawn request: a whole object, one byte range, or a
// walk over segments [first, first+count).
type largeReq struct {
	kind, d, edge int
	r             byteRange
	first, count  int64
}

// requests draws the mix from a seeded deck of 2000 cards, each a
// (kind, dataset) pair, so the shares hold exactly over every 2000
// requests whatever the seed: 2% whole objects, 68% unaligned ranges of
// 64 KiB–8 MiB and 30% walks of 1–4 consecutive segments, each kind's
// datasets Zipf-weighted (s = 2.5). Edges are uniform. A whole object
// moves ten times the bytes of the average request, so letting its
// share, or which datasets it reads, drift with the seed moved every
// end-to-end figure between seeds.
func (w *largeSegments) requests(rng *rand.Rand, edges int) func() largeReq {
	var counts []int
	for _, n := range []int{largeWhole: 40, largeRange: 1360, largeWalk: 600} {
		counts = append(counts, zipfCounts(w.datasets, 2.5, n)...)
	}
	cards := newDeck(rng, counts)
	segs := w.segments()
	return func() largeReq {
		c := cards.draw()
		q := largeReq{kind: c / w.datasets, d: c % w.datasets, edge: rng.Intn(edges)}
		switch q.kind {
		case largeRange:
			n := (64 << 10) + rng.Int63n(8<<20-64<<10)
			q.r = byteRange{off: rng.Int63n(w.size - n + 1), n: n}
		case largeWalk:
			q.count = 1 + rng.Int63n(4)
			q.first = rng.Int63n(segs - q.count + 1)
		}
		return q
	}
}

// deck deals values from a fixed multiset in seeded random order,
// reshuffling once every card has been dealt.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck holds counts[v] cards of each value v.
func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for v, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, v)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// zipfCounts splits total cards over n ranks in proportion to
// 1/(rank+1)^s, every rank getting at least one.
func zipfCounts(n int, s float64, total int) []int {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	out := make([]int, n)
	left := total
	for i := n - 1; i > 0; i-- {
		out[i] = max(1, int(math.Round(w[i]/sum*float64(total))))
		left -= out[i]
	}
	out[0] = left
	return out
}

func (w *largeSegments) newGen(e *env, rng *rand.Rand, _ float64) func() op {
	next := w.requests(rng, len(e.urls))
	return func() op {
		q := next()
		return func(ctx context.Context, t *reqTrace) opResult {
			n, err := w.do(ctx, e, q, t)
			return opResult{class: classRead, bytes: n, err: err}
		}
	}
}

func (w *largeSegments) do(ctx context.Context, e *env, q largeReq, t *reqTrace) (int64, error) {
	switch q.kind {
	case largeWhole:
		w.fetches.Add(1)
		w.units.Add(w.segments())
		return w.whole(ctx, e, q.edge, q.d, t)
	case largeRange:
		w.fetches.Add(1)
		w.ranged.Add(1)
		w.units.Add((q.r.off+q.r.n-1)/w.segSize - q.r.off/w.segSize + 1)
		rs := []byteRange{q.r}
		return e.get(ctx, q.edge, "/v1/fetch/"+string(seededID(q.d)), rangeHeader(rs), t,
			func(resp *http.Response) (int64, error) {
				return checkResponse(resp, w.exp[q.d], w.size, rs, t)
			})
	}
	var total int64
	for s := q.first; s < q.first+q.count; s++ {
		w.segReqs.Add(1)
		w.units.Add(1)
		// Only the walk's first request is traced; its body span runs to
		// the end of the last segment.
		tt := t
		if s > q.first {
			tt = nil
		}
		n, err := w.segment(ctx, e, q.edge, q.d, s, tt)
		total += n
		if err != nil {
			return total, err
		}
	}
	if t != nil {
		t.bodyEnd = time.Now()
	}
	return total, nil
}

func (w *largeSegments) reset() {
	w.fetches.Store(0)
	w.ranged.Store(0)
	w.segReqs.Store(0)
	w.units.Store(0)
}

func (w *largeSegments) expectations() []expectation {
	f, s := float64(w.fetches.Load()), float64(w.segReqs.Load())
	return []expectation{
		exact("fetch requests", series("scdn_fetch_requests_total"), f),
		exact("client segment requests", series("scdn_segment_fetch_requests_total"), s),
		exact("range requests", series("scdn_range_requests_total"), float64(w.ranged.Load())),
		exact("fetch failures", series("scdn_fetch_failures_total", "scdn_segment_fetch_failures_total"), 0),
		exact("fetch latency observations", series("scdn_fetch_latency_seconds_count"), f),
		exact("segment latency observations", series("scdn_segment_fetch_latency_seconds_count"), s),
	}
}

func (w *largeSegments) finish(context.Context, *env) []string { return nil }

func (w *largeSegments) servedUnits() float64 { return float64(w.units.Load()) }

func (w *largeSegments) probe(e *env) probeTarget {
	// Open a segment the first edge holds; the hottest dataset's come
	// first.
	vol := e.lc.Nodes[0].Volume()
	id, seg := seededID(0), int64(0)
	for d := 0; d < w.datasets; d++ {
		if s := firstResident(vol, seededID(d), w.segments()); s >= 0 {
			id, seg = seededID(d), s
			break
		}
	}
	return probeTarget{
		dataset: id, node: 0, openSeg: seg, unit: w.segSize,
		payload:      func(n int64) []byte { return seededBytes(id, n) },
		handlerPath:  "/v1/fetch/" + string(id) + "/segments/" + strconv.FormatInt(seg, 10),
		handlerBytes: storage.SegmentExtent(w.size, w.segSize, seg),
	}
}

func firstResident(vol *storage.DiskVolume, id storage.DatasetID, segs int64) int64 {
	for s := int64(0); s < segs; s++ {
		if vol.HasSegment(id, s) {
			return s
		}
	}
	return -1
}
