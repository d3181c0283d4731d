package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// counters maps a /metrics series name to its value summed over edges.
type counters map[string]float64

// scrape reads every edge's /metrics and sums each unlabelled series.
func scrape(ctx context.Context, client *http.Client, urls []string) (counters, error) {
	out := make(counters)
	for _, base := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", base, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 || strings.ContainsAny(f[0], "{#") {
				continue
			}
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", base, err)
		}
	}
	return out, nil
}

// sub returns c − before for every series in c.
func (c counters) sub(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// expectation is one reconciliation rule: the cluster-side value, as a
// function of the counter deltas, must equal the count the benchmark
// itself made.
type expectation struct {
	what string
	got  func(d counters) float64
	want float64
	// extra, when set, lets the cluster value exceed want by up to
	// extra(d): traffic the program makes itself (repair copies fetch
	// through the same endpoint as clients) and counts beside the
	// benchmark's.
	extra func(d counters) float64
}

// exact is an expectation the cluster must meet exactly.
func exact(what string, got func(d counters) float64, want float64) expectation {
	return expectation{what: what, got: got, want: want}
}

// series is the delta of one /metrics series.
func series(names ...string) func(d counters) float64 {
	return func(d counters) float64 {
		var v float64
		for _, n := range names {
			if strings.HasPrefix(n, "-") {
				v -= d[n[1:]]
			} else {
				v += d[n]
			}
		}
		return v
	}
}

// mismatches lists every expectation the deltas do not meet.
func mismatches(exp []expectation, d counters) []string {
	var out []string
	for _, e := range exp {
		got := e.got(d)
		switch {
		case e.extra == nil && got != e.want:
			out = append(out, fmt.Sprintf("%s: cluster %g, benchmark %g", e.what, got, e.want))
		case e.extra != nil && (got < e.want || got > e.want+e.extra(d)):
			out = append(out, fmt.Sprintf("%s: cluster %g, benchmark %g (+ up to %g)", e.what, got, e.want, e.extra(d)))
		}
	}
	sort.Strings(out)
	return out
}

// settle re-scrapes until every expectation holds or the deadline
// passes. Edges bump some counters after the client has read the last
// byte of a response, so a scrape right after the load ends can lag;
// the wait is bounded and a mismatch left at the deadline is reported.
func settle(ctx context.Context, exp []expectation, deadline time.Duration,
	read func(context.Context) (counters, error)) (counters, []string, error) {
	stop := time.Now().Add(deadline)
	for {
		d, err := read(ctx)
		if err != nil {
			return nil, nil, err
		}
		bad := mismatches(exp, d)
		if len(bad) == 0 || time.Now().After(stop) {
			return d, bad, nil
		}
		select {
		case <-ctx.Done():
			return d, bad, nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// quiesce reads the counters until every expectation's cluster-side
// value is the same on two reads in a row (or the deadline passes) and
// returns the last read: the baseline the run's deltas start from.
func quiesce(ctx context.Context, exp []expectation, deadline time.Duration,
	read func(context.Context) (counters, error)) (counters, error) {
	stop := time.Now().Add(deadline)
	prev, err := read(ctx)
	if err != nil {
		return nil, err
	}
	for {
		select {
		case <-ctx.Done():
			return prev, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		cur, err := read(ctx)
		if err != nil {
			return nil, err
		}
		same := true
		for _, e := range exp {
			if e.got(cur) != e.got(prev) {
				same = false
			}
		}
		if same || time.Now().After(stop) {
			return cur, nil
		}
		prev = cur
	}
}
