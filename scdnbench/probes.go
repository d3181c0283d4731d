package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/server"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
)

// probeTarget tells the direct layer calls what the workload's data
// looks like.
type probeTarget struct {
	dataset storage.DatasetID
	node    int   // edge whose volume holds the dataset
	openSeg int64 // segment to open, or −1 for a flat file
	unit    int64 // bytes one materialization writes
	payload func(n int64) []byte
	// handlerPath / handlerRange / handlerBytes describe the fetch the
	// in-process handler probe serves.
	handlerPath, handlerRange string
	handlerBytes              int64
}

// seededBytes is the first n bytes of a seeded dataset.
func seededBytes(id storage.DatasetID, n int64) []byte {
	var b bytes.Buffer
	b.Grow(int(n))
	_, _ = server.WritePayloadRange(&b, id, 0, n)
	return b.Bytes()
}

// discardResponse is an http.ResponseWriter with no socket behind it.
type discardResponse struct {
	h      http.Header
	status int
	n      int64
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(s int) {
	if d.status == 0 {
		d.status = s
	}
}
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(p))
	return len(p), nil
}

// probeLayers times direct calls into each layer's public functions,
// each call (or batch) recorded as a span, and returns the per-layer
// figures. It runs after reconciliation: the handler probe moves the
// edge's own counters.
func probeLayers(ctx context.Context, b *bench, e *env, pt probeTarget, m metricSet) error {
	tr := b.tracer
	lc := e.lc
	node := lc.Nodes[pt.node]
	tok := socialnet.Token(e.tokens[pt.node])

	// middleware: Authorize on the request path's token and dataset.
	const authN = 20000
	var authErr error
	d := tr.timed("middleware.authorize", authN, func() {
		for i := 0; i < authN; i++ {
			if _, err := lc.Middleware.Authorize(tok, pt.dataset); err != nil {
				authErr = err
			}
		}
	})
	if authErr != nil {
		return fmt.Errorf("probe authorize: %w", authErr)
	}
	m.add("middleware.authorize_ns", "ns", float64(d.Nanoseconds())/authN)

	// catalog: Resolve + DatasetBytes, as the fetch handler calls them.
	const resN = 20000
	var resErr error
	requester := allocation.NodeID(lc.UserIDs[0])
	d = tr.timed("catalog.resolve", resN, func() {
		for i := 0; i < resN; i++ {
			if _, _, err := lc.Catalog.Resolve(pt.dataset, requester); err != nil {
				resErr = err
			}
			if _, err := lc.Catalog.DatasetBytes(pt.dataset); err != nil {
				resErr = err
			}
		}
	})
	if resErr != nil {
		return fmt.Errorf("probe resolve: %w", resErr)
	}
	m.add("catalog.resolve_ns", "ns", float64(d.Nanoseconds())/resN)

	// storage: open + release on the edge's own volume.
	vol := node.Volume()
	const openN = 5000
	var openErr error
	d = tr.timed("storage.open", openN, func() {
		for i := 0; i < openN; i++ {
			if pt.openSeg >= 0 {
				f, _, _, ok := vol.OpenSegment(pt.dataset, pt.openSeg)
				if !ok {
					openErr = fmt.Errorf("segment %d of %s not resident", pt.openSeg, pt.dataset)
					return
				}
				vol.ReleaseSegment(pt.dataset, pt.openSeg, f)
			} else {
				f, _, ok := vol.Open(pt.dataset)
				if !ok {
					openErr = fmt.Errorf("%s not resident", pt.dataset)
					return
				}
				vol.Release(pt.dataset, f)
			}
		}
	})
	if openErr != nil {
		return fmt.Errorf("probe open: %w", openErr)
	}
	m.add("storage.open_us", "us", float64(d.Microseconds())/openN)

	// storage: MaterializeSegment on a scratch volume, one unit each.
	scratch := filepath.Join(b.buildDir, "run", fmt.Sprintf("scratch-%d", os.Getpid()))
	sv, err := storage.NewDiskVolume(scratch, 1<<40)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	const matN = 8
	var mats dist
	for i := int64(0); i < matN; i++ {
		off := i * pt.unit
		var merr error
		dd := tr.timed("storage.materialize", 1, func() {
			_, merr = sv.MaterializeSegment(pt.dataset, i, pt.unit, func(w io.Writer) error {
				_, err := server.WritePayloadRange(w, pt.dataset, off, pt.unit)
				return err
			})
		})
		if merr != nil {
			return fmt.Errorf("probe materialize: %w", merr)
		}
		mats = append(mats, dd.Seconds()*1000)
	}
	m.add("storage.materialize_ms", "ms", mats.median())

	// ingest: hash and range-verify throughput over workload bytes.
	data := pt.payload(16 << 20)
	h := ingest.NewHasher(ingest.DefaultBlockSize)
	d = tr.timed("ingest.hash", 1, func() { _, _ = h.Write(data) })
	m.add("ingest.hash_mbps", "MB/s", float64(len(data))/1e6/d.Seconds())
	man := h.Manifest(pt.dataset, true)
	v, err := man.NewRangeVerifier(0, man.Size)
	if err != nil {
		return err
	}
	var verr error
	d = tr.timed("ingest.verify", 1, func() {
		if _, verr = v.Write(data); verr == nil {
			verr = v.Close()
		}
	})
	if verr != nil {
		return fmt.Errorf("probe verify: %w", verr)
	}
	m.add("ingest.verify_mbps", "MB/s", float64(len(data))/1e6/d.Seconds())

	// server: the edge's handler in process, no socket.
	handler := node.Handler()
	const handN = 400
	var hs dist
	for i := 0; i < handN; i++ {
		req := httptest.NewRequest(http.MethodGet, pt.handlerPath, nil)
		req.Header.Set("Authorization", "Bearer "+string(tok))
		if pt.handlerRange != "" {
			req.Header.Set("Range", pt.handlerRange)
		}
		rw := &discardResponse{h: make(http.Header)}
		dd := tr.timed("server.handler", 1, func() { handler.ServeHTTP(rw, req) })
		if rw.status/100 != 2 || rw.n != pt.handlerBytes {
			return fmt.Errorf("probe handler: status %d, %d bytes (want %d)", rw.status, rw.n, pt.handlerBytes)
		}
		hs = append(hs, dd.Seconds()*1e6)
	}
	hp99, _, _ := hs.tail()
	m.add("server.handler_p50_us", "us", hs.median())
	m.add("server.handler_p99_us", "us", hp99)
	return nil
}

// probeTransfers times sequential striped uploads and downloads through
// cdnclient, stripes = connection slots, one transfer in flight, and
// returns their latencies (ms) and each download's slowest stripe over
// its median one.
func probeTransfers(ctx context.Context, b *bench, e *env) (ups, downs, slow dist, err error) {
	const n, size = 8, 4 << 20
	rng := rand.New(rand.NewSource(b.seed ^ 0x5ca1ab1e))
	src := make([]byte, size)
	for i := 0; i < n; i++ {
		rng.Read(src)
		id := storage.DatasetID(fmt.Sprintf("probe-%d-%d", b.seed, i))
		edge := i % len(e.urls)
		opts := cdnclient.TransferOptions{
			Client: e.client, Endpoints: []string{e.urls[edge]}, Token: e.tokens[edge], Stripes: b.slots,
		}
		t0 := time.Now()
		man, err := cdnclient.Upload(ctx, opts, id, e.lc.Config.Group, bytes.NewReader(src), size)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("probe upload: %w", err)
		}
		t1 := time.Now()
		b.tracer.tree(span{Name: "cdnclient.upload", Start: b.tracer.ns(t0), End: b.tracer.ns(t1)}, nil)
		ups = append(ups, t1.Sub(t0).Seconds()*1000)
		dl, sr, err := download(ctx, opts, man, sourceBytes(src), nil, b.tracer)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("probe download: %w", err)
		}
		downs = append(downs, dl.Seconds()*1000)
		slow = append(slow, sr)
	}
	return ups, downs, slow, nil
}

func addTransferStats(m metricSet, ups, downs, slow dist) {
	up99, _, _ := ups.tail()
	dn99, _, _ := downs.tail()
	m.add("cdnclient.upload_p50_ms", "ms", ups.median())
	m.add("cdnclient.upload_p99_ms", "ms", orMax(up99, ups))
	m.add("cdnclient.download_p50_ms", "ms", downs.median())
	m.add("cdnclient.download_p99_ms", "ms", orMax(dn99, downs))
	m.add("stripe.slowest_over_median", "ratio", slow.median())
}

// orMax falls back to the largest sample when there are too few for a
// tail.
func orMax(v float64, d dist) float64 {
	if v == v {
		return v
	}
	s := d.sorted()
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// slowestOverMedian is the slowest stripe's time over the median
// stripe's — how much one straggler stretches a striped transfer.
func slowestOverMedian(st []time.Duration) float64 {
	if len(st) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), st...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return ratio(float64(s[len(s)-1]), float64(med))
}
