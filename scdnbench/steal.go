package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark runs in a guest whose hypervisor may hand its CPUs to
// other guests for milliseconds at a time (steal time). A request in
// flight then waits for the host, not for the program, and tail latency
// measures the neighbours. The benchmark therefore samples the guest's
// steal counter while it measures and judges latency and throughput on
// the windows the host left alone.

// cpuStat is the guest's cumulative CPU time split from /proc/stat.
type cpuStat []uint64

// stealField is steal's position among /proc/stat's cpu fields.
const stealField = 7

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out cpuStat
	for _, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		out = append(out, v)
	}
	return out
}

// stealShare is the share of CPU time between two samples that went to
// other guests (0 when unknown).
func stealShare(a, b cpuStat) float64 {
	if len(a) <= stealField || len(b) != len(a) {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(float64(b[stealField]-a[stealField]), float64(total))
}

// stealMonitor samples /proc/stat on a fixed period until closed.
type stealMonitor struct {
	mu   sync.Mutex
	at   []time.Time
	st   []cpuStat
	cpu  []time.Duration // this process's CPU time at each sample
	stop chan struct{}
	done chan struct{}
}

const stealSamplePeriod = 20 * time.Millisecond

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	st, cpu := readCPUStat(), cpuTime()
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.st = append(m.st, st)
	m.cpu = append(m.cpu, cpu)
	m.mu.Unlock()
}

func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
	m.sample()
}

// span returns the indexes of the last sample at or before a and the
// first at or after b (ok false when they do not bracket an interval).
func (m *stealMonitor) span(a, b time.Time) (i, j int, ok bool) {
	i = sort.Search(len(m.at), func(k int) bool { return m.at[k].After(a) }) - 1
	j = sort.Search(len(m.at), func(k int) bool { return !m.at[k].Before(b) })
	i, j = max(i, 0), min(j, len(m.at)-1)
	return i, j, j > i
}

// share is the steal share over [a, b], measured between the samples
// that bracket it. A nil monitor reports none.
func (m *stealMonitor) share(a, b time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, j, ok := m.span(a, b)
	if !ok {
		return 0
	}
	return stealShare(m.st[i], m.st[j])
}

// cpuIn is the process CPU time spent over [a, b], to the monitor's
// sampling period (0 for a nil monitor).
func (m *stealMonitor) cpuIn(a, b time.Time) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, j, ok := m.span(a, b)
	if !ok {
		return 0
	}
	return m.cpu[j] - m.cpu[i]
}

// Window selection.
const (
	// cleanSteal is the most steal a window may carry and still count:
	// none of the guest's 10 ms accounting ticks went to another guest.
	cleanSteal = 0
	// minCleanShare: when fewer than this share of a phase's windows are
	// clean, the least-stolen windows up to this share are used instead.
	minCleanShare = 1.0 / 6
)

// selection is the part of a phase judged for latency or throughput.
type selection struct {
	windows []*phase
	clean   int // windows within cleanSteal
	total   int
	steal   float64 // mean steal share over the whole phase
}

// samples concatenates the selected windows' samples; the result's
// elapsed and cpu are the windows' sums.
func (s selection) samples() *phase {
	out := &phase{}
	for _, w := range s.windows {
		out.samples = append(out.samples, w.samples...)
		out.elapsed += w.dur
		out.cpu += w.cpu
		out.rate = w.rate
	}
	return out
}

// groupedTail is the median, over g groups of consecutive selected
// windows, of each group's tail latency of class: one stretch of the
// phase with an unusual tail (a repair pass, a collection) moves it
// less than a tail taken over all samples at once.
func (s selection) groupedTail(class, g int) float64 {
	ws := append([]*phase(nil), s.windows...)
	sort.Slice(ws, func(a, b int) bool { return ws[a].start.Before(ws[b].start) })
	var tails dist
	for k := 0; k < g; k++ {
		grp := selection{windows: ws[k*len(ws)/g : (k+1)*len(ws)/g]}
		if v, _, ok := grp.samples().latencies(class).tail(); ok {
			tails = append(tails, v)
		}
	}
	return tails.median()
}

// selectWindows splits the phase into windows of width by each sample's
// time (intended start for open loop, completion for closed loop) and
// keeps those the host did not steal from: every window within
// cleanSteal, or, when those are fewer than minCleanShare of all or hold
// fewer than minSamples samples, the least-stolen windows up to both.
// minSamples keeps a percentile's rank fixed: a reference phase judged
// on a fifth of its reads would report a lower percentile than one
// judged on all of them.
func (p *phase) selectWindows(m *stealMonitor, width time.Duration, byCompletion bool, minSamples int) selection {
	k := max(1, int(p.dur/width))
	ws := make([]*phase, k)
	steals := make([]float64, k)
	wdur := p.dur / time.Duration(k)
	for i := range ws {
		a := p.start.Add(time.Duration(i) * wdur)
		ws[i] = &phase{rate: p.rate, start: a, dur: wdur, cpu: m.cpuIn(a, a.Add(wdur))}
		// A request due at the end of a window runs into the next one,
		// and one due at its start queues behind the previous one's.
		steals[i] = m.share(a.Add(-stealSamplePeriod), a.Add(wdur+stealSamplePeriod))
	}
	for _, s := range p.samples {
		t := float64(s.at)
		if byCompletion {
			t += float64(s.lat)
		}
		i := min(max(int(t/wdur.Seconds()), 0), k-1)
		ws[i].samples = append(ws[i].samples, s)
	}
	sel := selection{total: k, steal: m.share(p.start, p.start.Add(p.elapsed))}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steals[order[a]] < steals[order[b]] })
	need := max(1, int(float64(k)*minCleanShare+0.5))
	kept := 0
	for n, i := range order {
		if steals[i] <= cleanSteal {
			sel.clean++
		}
		if steals[i] <= cleanSteal || n < need || kept < minSamples {
			sel.windows = append(sel.windows, ws[i])
			kept += len(ws[i].samples)
		}
	}
	return sel
}
