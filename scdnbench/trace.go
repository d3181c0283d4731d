package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"time"
)

// reqTrace carries one request's transport timestamps on a traced run.
// The harness owns pool wait; the operation fills the rest.
type reqTrace struct {
	getConn, gotConn, firstByte, bodyEnd time.Time
	reused                               bool
	verify                               time.Duration // summed bytes.Equal time
	verifyBytes                          int64
}

// clientTrace hooks net/http's connection and first-byte events.
func (t *reqTrace) clientTrace() *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GetConn: func(string) { t.getConn = time.Now() },
		GotConn: func(info httptrace.GotConnInfo) {
			t.gotConn = time.Now()
			t.reused = info.Reused
		},
		GotFirstResponseByte: func() { t.firstByte = time.Now() },
	}
}

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the causing span's ID (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Count is how many calls a batched direct-call span covers.
	Count int `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept.
const maxSpans = 4 << 20

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
	// Request-path aggregates for the per-layer metrics.
	newConns    int
	verifyNS    int64
	verifyBytes int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }

// add records spans under one trace; spans[i].Parent indexes into the
// same slice (−1 for the root) and is rewritten to span IDs.
func (tr *tracer) add(spans []span, parents []int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans)+len(spans) > maxSpans {
		tr.dropped += len(spans)
		return
	}
	base := tr.nextID + 1
	tr.nextID += uint64(len(spans))
	for i := range spans {
		spans[i].ID = base + uint64(i)
		spans[i].Trace = base
		if parents[i] >= 0 {
			spans[i].Parent = base + uint64(parents[i])
		}
		tr.spans = append(tr.spans, spans[i])
	}
}

// request records one harness request: the root span from intended start
// to completion, with children for pool wait and — when the operation
// reported them — connection, time to first byte, body, and verify.
// Verify runs interleaved with body reads, so its chunks are coalesced
// into one child of body whose length is their summed time.
func (tr *tracer) request(intended, fired, acquired, done time.Time, rt *reqTrace) {
	spans := []span{
		{Name: "request", Start: tr.ns(intended), End: tr.ns(done)},
		{Name: "loadharness.pool_wait", Start: tr.ns(fired), End: tr.ns(acquired)},
	}
	parents := []int{-1, 0}
	if rt != nil && !rt.gotConn.IsZero() {
		spans = append(spans, span{Name: "transport.conn", Start: tr.ns(rt.getConn), End: tr.ns(rt.gotConn)})
		parents = append(parents, 0)
		if !rt.firstByte.IsZero() {
			spans = append(spans, span{Name: "transport.ttfb", Start: tr.ns(rt.gotConn), End: tr.ns(rt.firstByte)})
			parents = append(parents, 0)
			if !rt.bodyEnd.IsZero() {
				body := len(spans)
				spans = append(spans, span{Name: "transport.body", Start: tr.ns(rt.firstByte), End: tr.ns(rt.bodyEnd)})
				parents = append(parents, 0)
				if rt.verify > 0 {
					vs := tr.ns(rt.firstByte)
					spans = append(spans, span{Name: "client.verify", Start: vs, End: vs + rt.verify.Nanoseconds()})
					parents = append(parents, body)
				}
			}
		}
	}
	tr.add(spans, parents)
	if rt != nil {
		tr.mu.Lock()
		if !rt.gotConn.IsZero() && !rt.reused {
			tr.newConns++
		}
		tr.verifyNS += rt.verify.Nanoseconds()
		tr.verifyBytes += rt.verifyBytes
		tr.mu.Unlock()
	}
}

// timed records one direct layer call (or a batch of count calls) as a
// root span and returns its duration.
func (tr *tracer) timed(name string, count int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	tr.add([]span{{Name: name, Start: tr.ns(start), End: tr.ns(end), Count: count}}, []int{-1})
	return end.Sub(start)
}

// tree records an already-timed root and its children, e.g. a striped
// download and the per-stripe stats it returns.
func (tr *tracer) tree(root span, children []span) {
	spans := append([]span{root}, children...)
	parents := make([]int, len(spans))
	parents[0] = -1
	tr.add(spans, parents)
}

// byName returns the durations (ns) of every span with the name.
func (tr *tracer) byName(name string) dist {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var d dist
	for _, s := range tr.spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	return d
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval its children cover (overlapping children count once,
// children are clipped to the parent).
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
