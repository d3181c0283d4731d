package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"scdn/internal/cdnclient"
	"scdn/internal/ingest"
	"scdn/internal/server"
	"scdn/internal/storage"
)

// ingestMix publishes user data beside reads: cdnclient.Upload of opaque
// ~4 MiB datasets interleaved with cdnclient.Download of datasets
// uploaded during set-up, while each edge's sweeper repairs new uploads
// by byte copy to the replication floor. It is the only workload that
// runs ingest hashing, verified spill commits and repair copies.
type ingestMix struct {
	pool  []byte // seeded random bytes every dataset is a slice of
	seed  int64
	warm  []warmDataset
	group string

	mu       sync.Mutex
	uploaded []storage.DatasetID // measured-phase uploads, for the floor check

	uploads, uploadBytes, downloads, stripes atomic.Int64
	next                                     atomic.Int64
}

type warmDataset struct {
	id  storage.DatasetID
	src sourceBytes
	man *ingest.Manifest
}

const (
	ingestWarm        = 12
	ingestPoolBytes   = 48 << 20
	ingestReplication = 2
	// ingestUploadRate is the fixed upload rate (uploads/s) every phase
	// offers beside its downloads.
	ingestUploadRate = 3
)

func newIngestMix() *ingestMix { return &ingestMix{} }

func (w *ingestMix) prepare() error { return nil }

// dataset n's bytes: a seeded slice of the pool, 3–5 MiB long.
func (w *ingestMix) source(n int64) sourceBytes {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + n))
	size := 3<<20 + rng.Int63n(2<<20)
	off := rng.Int63n(int64(len(w.pool)) - size)
	return sourceBytes(w.pool[off : off+size])
}

func (w *ingestMix) start(b *bench) (*env, error) {
	if w.pool == nil {
		w.seed = b.seed
		w.pool = make([]byte, ingestPoolBytes)
		var key [32]byte
		binary.LittleEndian.PutUint64(key[:], uint64(b.seed))
		c := randv2.NewChaCha8(key)
		for i := 0; i+8 <= len(w.pool); i += 8 {
			binary.LittleEndian.PutUint64(w.pool[i:], c.Uint64())
		}
	}
	e, err := newEnv(server.ClusterConfig{
		Nodes: 3, Users: 8, Seed: b.seed, NoSeedDatasets: true, PullThrough: true,
		RepoCapacity: 64 << 30, ReplicaReserve: 32 << 30, StoreQuota: 8 << 30,
		Sweep: server.SweeperConfig{ReplicationTarget: ingestReplication},
	}, storeDir(b.buildDir, "ingest-mix"), b.slots)
	if err != nil {
		return nil, err
	}
	w.group = e.lc.Config.Group
	// Warm: publish the datasets the reads will fetch, b.slots at a
	// time, and wait until repair has copied each to the floor.
	ctx := context.Background()
	w.warm = make([]warmDataset, ingestWarm)
	var wg sync.WaitGroup
	errs := make([]error, ingestWarm)
	sem := make(chan struct{}, b.slots)
	for i := range w.warm {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			id := storage.DatasetID(fmt.Sprintf("warm-%03d", i))
			src := w.source(int64(i))
			man, err := w.upload(ctx, e, i%len(e.urls), id, src, nil)
			w.warm[i] = warmDataset{id: id, src: src, man: man}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	ids := make([]storage.DatasetID, len(w.warm))
	for i, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm upload: %w", err)
		}
		ids[i] = w.warm[i].id
	}
	if bad := waitFloor(e, ids, 15*time.Second); bad > 0 {
		e.close()
		return nil, fmt.Errorf("warm: %d datasets below %d live replicas", bad, ingestReplication)
	}
	w.next.Store(ingestWarm)
	return e, nil
}

func (w *ingestMix) upload(ctx context.Context, e *env, edge int, id storage.DatasetID,
	src sourceBytes, t *reqTrace) (*ingest.Manifest, error) {
	if t != nil {
		ctx = httptrace.WithClientTrace(ctx, t.clientTrace())
	}
	man, err := cdnclient.Upload(ctx, cdnclient.TransferOptions{
		Client: e.client, Endpoints: []string{e.urls[edge]}, Token: e.tokens[edge], Stripes: 1,
	}, id, w.group, bytes.NewReader(src), int64(len(src)))
	if t != nil {
		t.bodyEnd = time.Now()
	}
	return man, err
}

// download fetches a dataset through cdnclient.Download, which checks
// the manifest's block digests, and compares every byte with the
// retained source. It returns the elapsed time and the slowest stripe
// over the median one; tr, when non-nil, records the transfer and its
// stripes as spans.
func download(ctx context.Context, opts cdnclient.TransferOptions, man *ingest.Manifest,
	src sourceBytes, t *reqTrace, tr *tracer) (time.Duration, float64, error) {
	if t != nil {
		ctx = httptrace.WithClientTrace(ctx, t.clientTrace())
	}
	dst := &verifyingWriterAt{src: src}
	t0 := time.Now()
	res, err := cdnclient.Download(ctx, opts, man, dst)
	el := time.Since(t0)
	if t != nil {
		t.bodyEnd = time.Now()
		t.verify += dst.verT
		t.verifyBytes += dst.got
	}
	if err != nil {
		return el, 0, err
	}
	if dst.bad || dst.got != int64(len(src)) {
		return el, 0, fmt.Errorf("download of %s: %d of %d bytes verified", man.Dataset, dst.got, len(src))
	}
	st := make([]time.Duration, len(res.Stripes))
	for i, s := range res.Stripes {
		st[i] = s.Elapsed
	}
	if tr != nil {
		root := span{Name: "cdnclient.download", Start: tr.ns(t0), End: tr.ns(t0.Add(el))}
		kids := make([]span, len(res.Stripes))
		for i, s := range res.Stripes {
			kids[i] = span{Name: "stripe.fetch", Start: root.Start, End: root.Start + s.Elapsed.Nanoseconds()}
		}
		tr.tree(root, kids)
	}
	return el, slowestOverMedian(st), nil
}

// newGen draws the mix: uploads of new datasets to a round-robin origin
// at ingestUploadRate per second whatever the offered rate, the rest
// downloads of a warm dataset from a uniform edge.
func (w *ingestMix) newGen(e *env, rng *rand.Rand, rate float64) func() op {
	pUpload := min(1, ingestUploadRate/rate)
	return func() op {
		if rng.Float64() < pUpload {
			n := w.next.Add(1) - 1
			id := storage.DatasetID(fmt.Sprintf("up-%06d", n))
			src := w.source(n)
			edge := int(n) % len(e.urls)
			return func(ctx context.Context, t *reqTrace) opResult {
				w.uploads.Add(1)
				w.uploadBytes.Add(int64(len(src)))
				_, err := w.upload(ctx, e, edge, id, src, t)
				if err == nil {
					w.mu.Lock()
					w.uploaded = append(w.uploaded, id)
					w.mu.Unlock()
				}
				return opResult{class: classWrite, bytes: int64(len(src)), err: err}
			}
		}
		ds := w.warm[rng.Intn(len(w.warm))]
		edge := rng.Intn(len(e.urls))
		return func(ctx context.Context, t *reqTrace) opResult {
			w.downloads.Add(1)
			w.stripes.Add(1)
			_, _, err := download(ctx, cdnclient.TransferOptions{
				Client: e.client, Endpoints: []string{e.urls[edge]}, Token: e.tokens[edge], Stripes: 1,
			}, ds.man, ds.src, t, nil)
			return opResult{class: classRead, bytes: int64(len(ds.src)), err: err}
		}
	}
}

func (w *ingestMix) reset() {
	w.uploads.Store(0)
	w.uploadBytes.Store(0)
	w.downloads.Store(0)
	w.stripes.Store(0)
	w.mu.Lock()
	w.uploaded = nil
	w.mu.Unlock()
}

func (w *ingestMix) expectations() []expectation {
	return []expectation{
		exact("uploads", series("scdn_ingest_uploads_total"), float64(w.uploads.Load())),
		exact("upload bytes", series("scdn_ingest_upload_bytes_total"), float64(w.uploadBytes.Load())),
		// Each repair copy fetches its bytes through the same endpoint,
		// one stripe per other live holder (at most 4).
		{what: "download fetches", got: series("scdn_fetch_requests_total"),
			want: float64(w.stripes.Load()), extra: func(d counters) float64 {
				return 4 * (d["scdn_ingest_repair_copies_total"] + d["scdn_repair_failures_total"])
			}},
		// Only the origin holds a fresh upload and nothing reads it, so
		// each one reaches the floor by at least one repair copy.
		{what: "repair copies", got: series("scdn_ingest_repair_copies_total"), want: float64(w.uploads.Load()),
			extra: func(counters) float64 { return math.Inf(1) }},
		exact("fetch failures", series("scdn_fetch_failures_total"), 0),
		exact("digest rejects", series("scdn_ingest_digest_rejects_total"), 0),
		exact("regenerated repairs", series("scdn_ingest_repair_regenerated_total"), 0),
	}
}

// finish requires every upload of the measured phases to reach the
// replication floor by repair copy within a bounded wait.
func (w *ingestMix) finish(_ context.Context, e *env) []string {
	w.mu.Lock()
	ids := append([]storage.DatasetID(nil), w.uploaded...)
	w.mu.Unlock()
	if bad := waitFloor(e, ids, 20*time.Second); bad > 0 {
		return []string{fmt.Sprintf("repair: %d of %d uploads below %d live replicas", bad, len(ids), ingestReplication)}
	}
	return nil
}

// waitFloor waits until every dataset has the replication floor of live
// copies, returning how many still miss it at the deadline.
func waitFloor(e *env, ids []storage.DatasetID, deadline time.Duration) int {
	stop := time.Now().Add(deadline)
	for {
		bad := 0
		for _, id := range ids {
			reps, err := e.lc.Catalog.Replicas(id)
			live := 0
			if err == nil {
				for _, r := range reps {
					if e.lc.Registry.Online(r.Node) {
						live++
					}
				}
			}
			if live < ingestReplication {
				bad++
			}
		}
		if bad == 0 || time.Now().After(stop) {
			return bad
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (w *ingestMix) servedUnits() float64 { return float64(w.downloads.Load()) }

func (w *ingestMix) probe(e *env) probeTarget {
	ds := w.warm[0]
	return probeTarget{
		dataset: ds.id, node: 0, openSeg: -1, unit: 4 << 20,
		payload: func(n int64) []byte {
			return w.pool[:min(n, int64(len(w.pool)))]
		},
		handlerPath: "/v1/fetch/" + string(ds.id), handlerBytes: int64(len(ds.src)),
	}
}
