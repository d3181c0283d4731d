package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// smallFetch reads small shared files: 64 KiB seeded datasets with Zipf
// popularity across three edges, pull-through on and every edge warmed,
// so the request path is mux, auth, catalog, handler, connection and
// socket, and storage only opens pooled descriptors and sendfiles.
type smallFetch struct {
	datasets int
	size     int64
	exp      []*expected

	fetches, ranges, multipart atomic.Int64
}

func newSmallFetch() *smallFetch { return &smallFetch{datasets: 256, size: 64 << 10} }

func (w *smallFetch) prepare() error {
	for d := 0; d < w.datasets; d++ {
		e, err := newExpected(seededID(d), w.size)
		if err != nil {
			return err
		}
		w.exp = append(w.exp, e)
	}
	return nil
}

// seededID is the cluster's name for its d-th seeded dataset.
func seededID(d int) storage.DatasetID { return storage.DatasetID(fmt.Sprintf("ds-%03d", d+1)) }

func (w *smallFetch) start(b *bench) (*env, error) {
	e, err := newEnv(server.ClusterConfig{
		Nodes: 3, Users: 8, Datasets: w.datasets, DatasetBytes: w.size,
		Seed: b.seed, PullThrough: true,
		Sweep: server.SweeperConfig{ReplicationTarget: 2},
	}, storeDir(b.buildDir, "small-fetch"), b.slots)
	if err != nil {
		return nil, err
	}
	// Warm: every edge reads every dataset once, so each edge holds a
	// local copy (pull-through) with its file on disk.
	ctx := context.Background()
	for i := range e.urls {
		for d := 0; d < w.datasets; d++ {
			if _, err := w.fetch(ctx, e, i, d, nil, nil); err != nil {
				e.close()
				return nil, fmt.Errorf("warm %s on edge %d: %w", seededID(d), i+1, err)
			}
		}
	}
	return e, nil
}

func (w *smallFetch) fetch(ctx context.Context, e *env, edge, d int, rs []byteRange, t *reqTrace) (int64, error) {
	hdr := ""
	if len(rs) > 0 {
		hdr = rangeHeader(rs)
	}
	return e.get(ctx, edge, "/v1/fetch/"+string(seededID(d)), hdr, t, func(resp *http.Response) (int64, error) {
		return checkResponse(resp, w.exp[d], w.size, rs, t)
	})
}

// smallReq is one drawn request.
type smallReq struct {
	d, edge int
	rs      []byteRange // none: whole object; one: single range; more: multipart
}

// requests draws the request mix: Zipf-popular dataset, uniform edge,
// 88% whole objects, 10% single ranges, 2% multipart range sets.
func (w *smallFetch) requests(rng *rand.Rand, edges int) func() smallReq {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.datasets-1))
	return func() smallReq {
		r := smallReq{d: int(zipf.Uint64()), edge: rng.Intn(edges)}
		switch p := rng.Intn(100); {
		case p < 88:
		case p < 98:
			r.rs = []byteRange{randomRange(rng, 0, w.size, 16<<10)}
		default:
			r.rs = disjointRanges(rng, w.size, 2+rng.Intn(2))
		}
		return r
	}
}

func (w *smallFetch) newGen(e *env, rng *rand.Rand, _ float64) func() op {
	next := w.requests(rng, len(e.urls))
	return func() op {
		r := next()
		return func(ctx context.Context, t *reqTrace) opResult {
			w.fetches.Add(1)
			switch {
			case len(r.rs) == 1:
				w.ranges.Add(1)
			case len(r.rs) > 1:
				w.multipart.Add(1)
			}
			n, err := w.fetch(ctx, e, r.edge, r.d, r.rs, t)
			return opResult{class: classRead, bytes: n, err: err}
		}
	}
}

// randomRange is a window inside [lo, hi) of 1..maxLen bytes at an
// arbitrary offset.
func randomRange(rng *rand.Rand, lo, hi, maxLen int64) byteRange {
	off := lo + rng.Int63n(hi-lo)
	n := 1 + rng.Int63n(min(maxLen, hi-off))
	return byteRange{off, n}
}

// disjointRanges draws k ranges in ascending order with gaps between
// them, so the edge answers with exactly k multipart parts.
func disjointRanges(rng *rand.Rand, size int64, k int) []byteRange {
	zone := size / int64(k)
	out := make([]byteRange, k)
	for j := range out {
		start := int64(j) * zone
		out[j] = randomRange(rng, start, start+zone/2, zone/4)
	}
	return out
}

func (w *smallFetch) reset() {
	w.fetches.Store(0)
	w.ranges.Store(0)
	w.multipart.Store(0)
}

func (w *smallFetch) expectations() []expectation {
	f := float64(w.fetches.Load())
	return []expectation{
		exact("fetch requests", series("scdn_fetch_requests_total"), f),
		exact("fetch latency observations", series("scdn_fetch_latency_seconds_count"), f),
		exact("local+peer+origin serves", series("scdn_local_hits_total", "scdn_peer_hits_total",
			"scdn_origin_fetches_total", "-scdn_peer_fetch_requests_total"), f),
		exact("range requests", series("scdn_range_requests_total"),
			float64(w.ranges.Load()+w.multipart.Load())),
		exact("multipart range requests", series("scdn_range_multipart_total"), float64(w.multipart.Load())),
		exact("fetch failures", series("scdn_fetch_failures_total"), 0),
	}
}

func (w *smallFetch) finish(context.Context, *env) []string { return nil }

// servedUnits is how many stored objects the measured requests read.
func (w *smallFetch) servedUnits() float64 { return float64(w.fetches.Load()) }

func (w *smallFetch) probe(e *env) probeTarget {
	id := seededID(0)
	return probeTarget{
		dataset: id, node: 0,
		openSeg: -1, unit: w.size,
		payload:     func(n int64) []byte { return seededBytes(id, n) },
		handlerPath: "/v1/fetch/" + string(id), handlerBytes: w.size,
	}
}
