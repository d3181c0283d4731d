// Command scdnbench is the S-CDN's benchmark. It starts an in-process
// cluster of edges (server.StartLocalCluster, dir store), drives one
// workload open loop from a seeded schedule, verifies every response
// byte, reconciles its own counts against the edges' /metrics, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans from this program's own calls into each layer and
// the metrics are the per-layer ones. See NOTES.md for the workloads and
// what each metric should move.
//
// Usage (from the repository root, which scdnbench/run.sh builds from):
//
//	bash scdnbench/run.sh --workload small-fetch --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix against its own cluster.
type workload interface {
	// prepare builds the benchmark's own expected data (not timed).
	prepare() error
	// start brings up a cluster and warms it; setup_s times it.
	start(b *bench) (*env, error)
	// newGen returns a seeded request generator for one phase offered at
	// rate ops/s (the reference rate for a closed-loop phase).
	newGen(e *env, rng *rand.Rand, rate float64) func() op
	// reset zeroes the client-side counts reconciliation compares.
	reset()
	// expectations pairs cluster counter deltas with those counts.
	expectations() []expectation
	// finish runs end-of-run checks; each problem fails the run.
	finish(ctx context.Context, e *env) []string
	// servedUnits is how many stored objects or segments the counted
	// requests read (the base of storage.resident_ratio).
	servedUnits() float64
	// probe describes the workload's data to the direct layer calls.
	probe(e *env) probeTarget
}

// spec is a workload's fixed parameters.
type spec struct {
	name string
	make func() workload
	// refRate is the offered rate (ops/s) at which p50_ms, p90_ms and
	// cpu_us_per_op (and, on traced runs, loadharness.p99_ms) are
	// reported.
	refRate float64
	// limit is the tail latency capacity_rps must meet.
	limit time.Duration
	// refShare is the percentage of an untraced run's measured time
	// spent at the reference rate, the rest left to the saturation phase
	// and the capacity ladder.
	refShare int64
	// ownTransfers: the workload's traffic is cdnclient uploads and
	// downloads, which then give the traced run's cdnclient latencies
	// instead of the sequential probe.
	ownTransfers bool
}

var specs = []spec{
	{name: "small-fetch", make: func() workload { return newSmallFetch() },
		refRate: 4500, limit: 20 * time.Millisecond, refShare: 50},
	{name: "large-segments", make: func() workload { return newLargeSegments() },
		refRate: 70, limit: 500 * time.Millisecond, refShare: 70},
	{name: "ingest-mix", make: func() workload { return newIngestMix() },
		refRate: 100, limit: 100 * time.Millisecond, refShare: 60, ownTransfers: true},
}

// Run shape.
const (
	setupReps = 5
	// satShare is the percentage of an untraced run's measured time
	// spent in the closed-loop saturation phase; the capacity ladder
	// gets what the reference phase and it leave. A traced run splits
	// its time between an untraced and a traced reference phase.
	satShare = 15
	// A run is invalid when its generator fired the reference phase's
	// requests later than limit/lateShare at the 99th percentile: the
	// offered load was then not what the schedule said.
	lateShare = 2
	// Each pass of the capacity ladder has ladderRungs rungs; the coarse
	// pass runs from ladderLow to ladderHigh times the closed-loop
	// saturation rate.
	ladderRungs = 5
	ladderLow   = 0.5
	ladderHigh  = 1.2
	settleWait  = 5 * time.Second
	settlePause = 200 * time.Millisecond
)

// bench is one invocation.
type bench struct {
	spec     spec
	seed     int64
	seconds  int
	traced   bool
	buildDir string
	slots    int
	tracer   *tracer
	steal    *stealMonitor
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: small-fetch, large-segments or ingest-mix")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for replica volumes and traces")
	)
	flag.Parse()
	b := &bench{seed: *seed, seconds: *seconds, traced: *trace == 1, buildDir: *buildDir}
	for _, s := range specs {
		if s.name == *name {
			b.spec = s
		}
	}
	if b.spec.name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "scdnbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scdnbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// errInvalid marks a run whose load generator could not keep its
// schedule: its numbers do not describe the offered load.
type errInvalid struct{ msg string }

func (e errInvalid) Error() string { return "invalid run: " + e.msg }

func (b *bench) run() (*result, error) {
	// One connection slot per CPU, and no more Go threads than CPUs; the
	// run fails below if more connections ever carried requests at once.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	b.slots = nproc
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s %s/%s connections=%d\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, b.slots)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%v reference=%g ops/s limit=%s\n",
		b.spec.name, b.seed, b.seconds, b.traced, b.spec.refRate, b.spec.limit)
	if err := os.MkdirAll(filepath.Join(b.buildDir, "run"), 0o755); err != nil {
		return nil, err
	}
	w := b.spec.make()
	if err := w.prepare(); err != nil {
		return nil, err
	}

	// Set up several times; keep the last cluster. setup_s is the
	// median. Each set-up starts with the page cache's dirty data
	// written back (untimed), so one set-up's files, or an earlier
	// run's, are not flushed on another's clock; the same holds for the
	// measured phases after the last one.
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups dist
	var e *env
	for i := 0; i < reps; i++ {
		syscall.Sync()
		t0 := time.Now()
		ne, err := w.start(b)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			ne.close()
			continue
		}
		e = ne
	}
	defer e.close()
	syscall.Sync()
	fmt.Printf("setup: %d clusters, seconds %v\n", reps, fmtDist(setups))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	read := func(ctx context.Context) (counters, error) { return scrape(ctx, e.client, e.urls) }
	// The edges finish accounting for the warm-up's last responses after
	// the client has read them; start counting once that has settled.
	before, err := quiesce(ctx, w.expectations(), settleWait, read)
	if err != nil {
		return nil, err
	}
	b.steal = startStealMonitor()
	lookups0, _, unresolved0 := e.lc.Catalog.Stats()
	evict0 := evictions(e)
	w.reset()

	total := time.Duration(b.seconds) * time.Second
	var phases []*phase
	var ref, traced, sat *phase
	var capacity, peakRSS float64
	if b.traced {
		refDur := total / 2
		ref, err = b.refPhase(ctx, w, e, "reference-untraced", refDur, nil)
		if err != nil {
			return nil, err
		}
		b.tracer = newTracer()
		time.Sleep(settlePause)
		traced, err = b.refPhase(ctx, w, e, "reference-traced", refDur, b.tracer)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ref, traced)
	} else {
		ref, err = b.refPhase(ctx, w, e, "reference", total*time.Duration(b.spec.refShare)/100, nil)
		if err != nil {
			return nil, err
		}
		// Peak memory is taken while serving at the reference rate; the
		// overload phases below would add the benchmark's own queue.
		peakRSS = peakRSSMB()
		phases = append(phases, ref)
		time.Sleep(settlePause)
		satDur := total * satShare / 100
		sat = closedLoop(ctx, "saturation", satDur, b.slots, drawer(b.seed+101, func(rng *rand.Rand) func() op {
			return w.newGen(e, rng, b.spec.refRate)
		}))
		phases = append(phases, sat)
		b.log(sat)
		// The capacity ladder: a coarse pass from half the closed-loop
		// saturation rate to past it, then a fine pass around where the
		// coarse one crossed the limit.
		satOps := sat.selectWindows(b.steal, satWindow, true, 0).samples().opsPerSec()
		stepDur := (total - ref.dur - satDur) / (2 * ladderRungs)
		var rates, tails []float64
		rung := func(rate float64) error {
			i := len(rates)
			time.Sleep(settlePause)
			p, err := openLoop(ctx, openLoopConfig{
				name: fmt.Sprintf("ladder-%d", i+1), rate: rate, dur: stepDur,
				seed: b.seed + 200 + int64(i), slots: b.slots,
				maxBacklog: 4 * allowedBacklog(rate, b.spec.limit, b.slots),
			}, drawer(b.seed+300+int64(i), func(rng *rand.Rand) func() op { return w.newGen(e, rng, rate) }), nil)
			if err != nil {
				return err
			}
			phases = append(phases, p)
			b.log(p)
			rates = append(rates, rate)
			tails = append(tails, stepTail(p, b.steal, b.spec.limit, b.slots))
			return nil
		}
		for _, f := range spread(ladderLow, ladderHigh, ladderRungs) {
			if err := rung(satOps * f); err != nil {
				return nil, err
			}
		}
		coarse := ladderCapacity(rates, tails, b.spec.limit.Seconds())
		half := satOps * (ladderHigh - ladderLow) / (ladderRungs - 1) / 2
		for _, r := range spread(coarse-half, coarse+half, ladderRungs) {
			if err := rung(max(r, satOps*ladderLow/2)); err != nil {
				return nil, err
			}
		}
		sortRungs(rates, tails)
		capacity = ladderCapacity(rates, tails, b.spec.limit.Seconds())
		fmt.Printf("capacity: rungs %v ops/s, tails %v ms, limit %s: %.1f ops/s\n",
			fmtDist(rates), fmtDist(dist(tails).scale(1000)), b.spec.limit, capacity)
	}

	// Reconcile the benchmark's counts with every edge's counters, once
	// the workload's own end-of-run checks have waited for repair.
	bad := w.finish(ctx, e)
	after, miss, err := settle(ctx, w.expectations(), settleWait, func(ctx context.Context) (counters, error) {
		c, err := read(ctx)
		if err != nil {
			return nil, err
		}
		return c.sub(before), nil
	})
	if err != nil {
		return nil, err
	}
	bad = append(bad, miss...)
	for _, s := range bad {
		fmt.Printf("reconciliation: %s\n", s)
	}
	if len(bad) == 0 {
		fmt.Println("reconciliation: OK")
	}

	b.steal.close()
	refSel := ref.selectWindows(b.steal, refWindow, false, tailReads)
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor in the reference phase; %d of %d windows clean, %d judged\n",
		100*refSel.steal, refSel.clean, refSel.total, len(refSel.windows))

	res := &result{Metrics: metricSet{}}
	for _, p := range phases {
		res.Attempted += p.attempted()
		res.Failed += p.failures()
	}
	// A reconciliation miss is a failed operation too.
	res.Attempted += len(w.expectations())
	res.Failed += len(bad)
	res.Correct = res.Failed == 0

	// The generator fell behind when, in the windows the host left
	// alone, its 99th-percentile lateness passed the limit.
	late, _, _ := refSel.samples().field(func(s sample) float64 { return float64(s.late) }).tail()
	if lateLimit := b.spec.limit / lateShare; late > lateLimit.Seconds() {
		return nil, errInvalid{fmt.Sprintf("generator fired the reference phase %.2f ms late at p99 (limit %s)",
			late*1000, lateLimit)}
	}
	if e.conns.maxInUse > b.slots {
		return nil, fmt.Errorf("%d connections carried requests at once, more than the %d allowed", e.conns.maxInUse, b.slots)
	}

	if b.traced {
		lookups1, _, unresolved1 := e.lc.Catalog.Stats()
		b.layerMetrics(res.Metrics, w, e, ref, traced, after, float64(lookups1-lookups0),
			float64(unresolved1-unresolved0), float64(evictions(e)-evict0))
		res.Metrics.add("loadharness.p99_ms", "ms", refSel.groupedTail(classRead, tailStretches(refSel))*1000)
		res.Metrics.add("host.steal_pct", "%", 100*refSel.steal)
		res.Metrics.add("host.clean_windows", "count", float64(refSel.clean))
		if err := probeLayers(ctx, b, e, w.probe(e), res.Metrics); err != nil {
			return nil, err
		}
		ups, downs, slow, err := probeTransfers(ctx, b, e)
		if err != nil {
			return nil, err
		}
		if b.spec.ownTransfers {
			// The workload's own uploads and downloads give the latencies;
			// its single-stripe transfers cannot show stripe skew.
			ups, downs = traced.latencies(classWrite).scale(1000), traced.latencies(classRead).scale(1000)
		}
		addTransferStats(res.Metrics, ups, downs, slow)
		b.selfTimeMetrics(res.Metrics)
		path := filepath.Join(b.buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.spec.name, b.seed))
		if err := b.tracer.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s (%d dropped)\n", len(b.tracer.spans), path, b.tracer.dropped)
	} else {
		b.endToEnd(res.Metrics, refSel, sat.selectWindows(b.steal, satWindow, true, 0), capacity, setups)
		res.Metrics.add("peak_rss_mb", "MB", peakRSS)
	}
	printMetrics(res.Metrics)
	return res, nil
}

// refPhase runs the reference-rate open loop.
func (b *bench) refPhase(ctx context.Context, w workload, e *env, name string, dur time.Duration, tr *tracer) (*phase, error) {
	p, err := openLoop(ctx, openLoopConfig{
		name: name, rate: b.spec.refRate, dur: dur, seed: b.seed, slots: b.slots,
	}, drawer(b.seed+1, func(rng *rand.Rand) func() op { return w.newGen(e, rng, b.spec.refRate) }), tr)
	if err != nil {
		return nil, err
	}
	b.log(p)
	return p, nil
}

func (b *bench) log(p *phase) {
	lat := p.latencies(classRead)
	t, pct, _ := lat.tail()
	late := p.field(func(s sample) float64 { return float64(s.late) })
	lt, _, _ := late.tail()
	fmt.Printf("phase %s: offered %.1f ops/s, %d ops (%d failed) in %.2fs = %.1f ops/s, %.1f MB/s; read p50 %.3f ms, p%.2f %.3f ms (n=%d), backlog %d, late p50 %.3f ms p99 %.3f ms\n",
		p.name, p.rate, p.attempted(), p.failures(), p.elapsed.Seconds(), p.opsPerSec(), p.mbps(),
		lat.median()*1000, pct, t*1000, len(lat), p.backlog, late.median()*1000, lt*1000)
	for _, err := range p.errs {
		fmt.Printf("  failure: %v\n", err)
	}
}

// Window widths for judging steal: reference-phase latency by intended
// start, saturation throughput by completion, capacity steps.
const (
	refWindow  = 100 * time.Millisecond
	satWindow  = 100 * time.Millisecond
	stepWindow = 100 * time.Millisecond
)

// loadharness.p99_ms is the median of the tails of up to tailGroups
// stretches of the reference phase with at least tailReads reads each:
// the fewest whose 99th percentile has tailMin reads beyond it. The
// reference phase is judged on at least tailReads reads however much
// the host stole.
const (
	tailGroups = 15
	tailReads  = 100 * tailMin
)

// tailStretches is how many stretches the selection's reads make.
func tailStretches(s selection) int {
	return max(1, min(tailGroups, len(s.samples().latencies(classRead))/tailReads))
}

// endToEnd fills the end-to-end metrics from the reference phase's and
// the saturation phase's windows the host left alone.
func (b *bench) endToEnd(m metricSet, ref, sat selection, capacity float64, setups dist) {
	clean := ref.samples()
	lat := clean.latencies(classRead)
	m.add("setup_s", "s", setups.median())
	m.add("p50_ms", "ms", lat.median()*1000)
	m.add("p90_ms", "ms", lat.quantile(0.9)*1000)
	m.add("capacity_rps", "1/s", capacity)
	m.add("capacity_mbps", "MB/s", sat.samples().mbps())
	m.add("cpu_us_per_op", "us", float64(clean.cpu.Microseconds())/float64(max(1, clean.attempted()-clean.failures())))
}

func (d dist) scale(f float64) dist {
	out := make(dist, len(d))
	for i, v := range d {
		out[i] = v * f
	}
	return out
}

func fmtDist(d dist) string {
	parts := make([]string, len(d))
	for i, v := range d {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func evictions(e *env) uint64 {
	var n uint64
	for _, nd := range e.lc.Nodes {
		if v := nd.Volume(); v != nil {
			n += v.Stats().Evictions
		}
	}
	return n
}
