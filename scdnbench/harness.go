package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"scdn/internal/loadharness"
)

// Operation classes: reads are what p50_ms / p99_ms describe; writes are
// the uploads of ingest-mix.
const (
	classRead = iota
	classWrite
)

// opResult is what one operation reports back to the harness.
type opResult struct {
	class int
	bytes int64 // verified payload bytes moved
	err   error
}

// op performs one generated operation. t is nil on untraced runs.
type op func(ctx context.Context, t *reqTrace) opResult

// sample is one completed operation, timed from its intended start.
// Times are float32 seconds so a run's samples stay small next to the
// program's own memory, which peak_rss_mb measures.
type sample struct {
	at     float32 // intended start, seconds from the phase start
	lat    float32 // seconds from intended start to completion
	pool   float32 // seconds spent waiting for a connection slot
	late   float32 // seconds the generator fired after the intended start
	bytes  int64
	class  uint8
	failed bool
}

// phase is one measured stretch of load.
type phase struct {
	name    string
	rate    float64 // offered ops/s (0 for a closed-loop phase)
	start   time.Time
	dur     time.Duration // how long the phase offered load
	elapsed time.Duration
	cpu     time.Duration // process CPU (user+system) spent in the phase
	samples []sample
	// backlog is how many operations were still waiting or running when
	// the arrival schedule ended; aborted marks a phase whose backlog
	// outgrew its cap, after which the generator stopped firing.
	backlog int
	aborted bool
	errs    []error // first few failures, for the log
}

func (p *phase) attempted() int { return len(p.samples) }

func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the completion latencies (seconds) of successful
// operations of one class.
func (p *phase) latencies(class int) dist {
	var d dist
	for _, s := range p.samples {
		if int(s.class) == class && !s.failed {
			d = append(d, float64(s.lat))
		}
	}
	return d
}

// allLatencies includes failures: a failed operation misses any limit.
func (p *phase) allLatencies() dist {
	d := make(dist, 0, len(p.samples))
	for _, s := range p.samples {
		lat := float64(s.lat)
		if s.failed {
			lat = 1e9
		}
		d = append(d, lat)
	}
	return d
}

func (p *phase) field(f func(sample) float64) dist {
	d := make(dist, 0, len(p.samples))
	for _, s := range p.samples {
		d = append(d, f(s))
	}
	return d
}

func (p *phase) bytes() int64 {
	var n int64
	for _, s := range p.samples {
		if !s.failed {
			n += s.bytes
		}
	}
	return n
}

// opsPerSec is completed successful operations per wall-clock second.
func (p *phase) opsPerSec() float64 {
	return ratio(float64(p.attempted()-p.failures()), p.elapsed.Seconds())
}

// mbps is verified payload MB (1e6 bytes) per wall-clock second.
func (p *phase) mbps() float64 {
	return ratio(float64(p.bytes())/1e6, p.elapsed.Seconds())
}

// recorder collects samples from concurrent operations.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	errs    []error
}

func (r *recorder) add(s sample, err error) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	if err != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
	r.mu.Unlock()
}

// openLoopConfig is one open-loop phase: seeded exponential arrivals at
// rate for dur, at most slots operations running at once.
type openLoopConfig struct {
	name  string
	rate  float64
	dur   time.Duration
	seed  int64
	slots int
	// maxBacklog stops the generator once this many operations are
	// waiting or running (0 means no cap): past it the offered rate is
	// plainly above capacity and the phase has already failed.
	maxBacklog int
}

// openLoop fires operations on a seeded arrival schedule regardless of
// how many are still in flight; each is timed from its intended start,
// so waiting for a connection slot counts against it. draw is called on
// the generator goroutine only, in firing order, so the same seed gives
// the same request sequence. tr, when non-nil, records spans.
func openLoop(ctx context.Context, cfg openLoopConfig, draw func() op, tr *tracer) (*phase, error) {
	arr, err := loadharness.NewArrivals(loadharness.DistExponential, cfg.rate, cfg.seed)
	if err != nil {
		return nil, err
	}
	rec := recorder{samples: make([]sample, 0, int(cfg.rate*cfg.dur.Seconds()*1.1)+64)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inflight int
		sem      = make(chan struct{}, cfg.slots)
	)
	p := &phase{name: cfg.name, rate: cfg.rate, dur: cfg.dur}
	cpu0 := cpuTime()
	start := time.Now()
	p.start = start
	for {
		offset := arr.Next()
		if offset >= cfg.dur {
			break
		}
		if wait := offset - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			break
		}
		mu.Lock()
		if cfg.maxBacklog > 0 && inflight >= cfg.maxBacklog {
			mu.Unlock()
			p.aborted = true
			break
		}
		inflight++
		mu.Unlock()
		intended := start.Add(offset)
		fired := time.Now()
		o := draw()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			acquired := time.Now()
			var rt *reqTrace
			if tr != nil {
				rt = &reqTrace{}
			}
			res := o(ctx, rt)
			<-sem
			done := time.Now()
			mu.Lock()
			inflight--
			mu.Unlock()
			s := sample{
				class: uint8(res.class), at: float32(offset.Seconds()),
				lat:   float32(done.Sub(intended).Seconds()),
				pool:  float32(acquired.Sub(fired).Seconds()),
				late:  float32(fired.Sub(intended).Seconds()),
				bytes: res.bytes, failed: res.err != nil,
			}
			rec.add(s, res.err)
			if tr != nil {
				tr.request(intended, fired, acquired, done, rt)
			}
		}()
	}
	mu.Lock()
	p.backlog = inflight
	mu.Unlock()
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.samples, p.errs = rec.samples, rec.errs
	return p, nil
}

// closedLoop keeps slots operations running back to back for dur: the
// saturation throughput of the connection pool.
func closedLoop(ctx context.Context, name string, dur time.Duration, slots int, draw func() op) *phase {
	var (
		rec    recorder
		wg     sync.WaitGroup
		drawMu sync.Mutex
	)
	p := &phase{name: name, dur: dur}
	cpu0 := cpuTime()
	start := time.Now()
	p.start = start
	deadline := start.Add(dur)
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				drawMu.Lock()
				o := draw()
				drawMu.Unlock()
				t0 := time.Now()
				res := o(ctx, nil)
				rec.add(sample{
					class: uint8(res.class), at: float32(t0.Sub(start).Seconds()),
					lat: float32(time.Since(t0).Seconds()), bytes: res.bytes, failed: res.err != nil,
				}, res.err)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.samples, p.errs = rec.samples, rec.errs
	return p
}

// stepTail is a capacity step's tail latency as judged against the
// limit: the tail over the windows the host left alone, or, for a step
// that failed an operation or left a growing backlog, failTail times the
// limit — clearly failing, but finite, so one spoiled step cannot
// outvote its neighbours in the fit.
func stepTail(p *phase, m *stealMonitor, limit time.Duration, slots int) float64 {
	fail := failTail * limit.Seconds()
	if p.aborted || p.failures() > 0 || p.backlog > allowedBacklog(p.rate, limit, slots) {
		return fail
	}
	t, _, ok := p.selectWindows(m, stepWindow, false, 0).samples().allLatencies().tail()
	if !ok {
		return fail
	}
	return min(t, fail)
}

const failTail = 4

// allowedBacklog is the queue an offered rate may leave behind and still
// drain within the latency limit.
func allowedBacklog(rate float64, limit time.Duration, slots int) int {
	n := int(rate * limit.Seconds())
	if n < slots {
		n = slots
	}
	return n
}

// ladderCapacity estimates the highest rate whose tail latency meets
// limit from a ladder of ascending offered rates and the tail each one
// measured. Tail latency cannot fall as the offered rate rises, so the
// tails are first fitted with the closest non-decreasing sequence; the
// capacity is where that fit crosses the
// limit, interpolated linearly between the two rungs around the
// crossing. The fit lets every rung inform the answer, so one rung
// spoiled by noise moves it a little instead of halving it.
func ladderCapacity(rates, tails []float64, limit float64) float64 {
	fit := monotoneFit(tails)
	for i, t := range fit {
		if t <= limit {
			continue
		}
		if i == 0 {
			// Even the lowest rung misses: scale it down by the overshoot.
			return rates[0] * limit / t
		}
		f := (limit - fit[i-1]) / (t - fit[i-1])
		return rates[i-1] + f*(rates[i]-rates[i-1])
	}
	return rates[len(rates)-1]
}

// spread is n evenly spaced values from lo to hi.
func spread(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// sortRungs orders a ladder's rungs by rate, keeping each tail with its
// rate.
func sortRungs(rates, tails []float64) {
	idx := make([]int, len(rates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	r, t := append([]float64(nil), rates...), append([]float64(nil), tails...)
	for i, j := range idx {
		rates[i], tails[i] = r[j], t[j]
	}
}

// monotoneFit is the least-absolute-deviation non-decreasing fit to v:
// adjacent values that fall are pooled and replaced by their median, so
// one outlier is outvoted by its neighbours instead of averaged in.
func monotoneFit(v []float64) []float64 {
	var blocks []dist
	for _, x := range v {
		blocks = append(blocks, dist{x})
		for n := len(blocks); n > 1 && blocks[n-2].median() > blocks[n-1].median(); n = len(blocks) {
			blocks = append(blocks[:n-2], append(blocks[n-2], blocks[n-1]...))
		}
	}
	out := make([]float64, 0, len(v))
	for _, b := range blocks {
		m := b.median()
		for range b {
			out = append(out, m)
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drawer seeds a request generator for one phase.
func drawer(seed int64, newGen func(rng *rand.Rand) func() op) func() op {
	return newGen(rand.New(rand.NewSource(seed)))
}
