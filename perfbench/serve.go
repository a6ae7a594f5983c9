package main

import (
	"context"
	"fmt"
	"time"

	"gddr"
	"gddr/internal/routing"
)

// serveParams sizes a serving workload's load.
type serveParams struct {
	rate    float64       // open-loop requests per second
	callers int           // concurrent callers / connections (GOMAXPROCS)
	warmup  time.Duration // closed-loop warm-up before any phase is timed
	rounds  int           // open/closed phase pairs the measured seconds split into
}

// maxLateMS bounds how late the open-loop generator may wake for a due
// request (p99) before a serving run no longer holds the stated rate. Timer
// wake-ups on a 2-vCPU virtual machine overshoot by up to a few
// milliseconds at p99 even when idle; 20 ms is a dozen requests at 600/s.
const maxLateMS = 20.0

// load is what the timed phases of a serving run measured.
type load struct {
	warm         *phaseResult
	open, closed []*phaseResult // one per round
}

// phases runs the load of a serving workload: an untimed closed-loop
// warm-up, then rounds of an open-loop phase at the fixed rate followed by
// a closed-loop phase, together the measured seconds. Alternating short
// phases spreads both over the run, so a slow second on a shared machine
// moves one round, not a whole metric. mark runs between the warm-up and
// the timed phases with the number of the first timed request; requests
// are numbered across the phases.
func phases(ctx context.Context, cfg config, sp serveParams, do request, side sideTask, mark func(first int) error) (*load, error) {
	l := &load{warm: closedLoop(ctx, sp.warmup, sp.callers, 0, do, side)}
	n := l.warm.attempted
	if err := mark(n); err != nil {
		return nil, err
	}
	seg := time.Duration(cfg.seconds / float64(2*sp.rounds) * float64(time.Second))
	for r := 0; r < sp.rounds; r++ {
		open := openLoop(ctx, sp.rate, seg, sp.callers, n, do, side)
		// The open loop may claim a few numbers past its end; skip them.
		n += open.attempted + sp.callers
		closed := closedLoop(ctx, seg, sp.callers, n, do, side)
		n += closed.attempted
		l.open = append(l.open, open)
		l.closed = append(l.closed, closed)
	}
	return l, nil
}

// all returns every phase of the load, warm-up included.
func (l *load) all() []*phaseResult {
	return append(append([]*phaseResult{l.warm}, l.open...), l.closed...)
}

// count counts every request of the load and its failures.
func (l *load) count(o *outcome) {
	for _, p := range l.all() {
		o.attempt(p.attempted, p.failed, p.errs...)
	}
}

// pooled concatenates one per-request series over the phases.
func pooled(ps []*phaseResult, series func(*phaseResult) []float64) []float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, series(p)...)
	}
	return xs
}

// capacity is closed-loop completed requests per second, the median over
// the rounds.
func (l *load) capacity() float64 {
	return median(l.rates())
}

func (l *load) rates() []float64 {
	var rps []float64
	for _, c := range l.closed {
		rps = append(rps, float64(c.done)/c.elapsed.Seconds())
	}
	return rps
}

// lateP99 is how late the open-loop generator woke for due requests, p99.
func (l *load) lateP99() float64 {
	return quantile(pooled(l.open, func(p *phaseResult) []float64 { return p.lateMS }), 0.99)
}

// record counts the load's operations and sets the serving end-to-end
// metrics: open-loop p50 latency (the median over the rounds of
// each round's median) and closed-loop capacity. The tail is printed, not
// scored: p90 the same way as p50, p99 over all requests. A rounds line
// lists the per-round figures.
func (l *load) record(o *outcome) {
	l.count(o)
	var p50s, p90s []float64
	for _, p := range l.open {
		p50s = append(p50s, quantile(p.latMS, 0.5))
		p90s = append(p90s, quantile(p.latMS, 0.9))
	}
	o.set("throughput_per_s", l.capacity(), "1/s")
	o.set("p50_ms", median(p50s), "ms")
	o.note("p90_ms", median(p90s), "ms")
	o.rounds = fmt.Sprintf("p50_ms=%.3g p90_ms=%.3g throughput_per_s=%.4g", p50s, p90s, l.rates())
	o.note("p99_ms", quantile(pooled(l.open, func(p *phaseResult) []float64 { return p.latMS }), 0.99), "ms")
	done := func(ps []*phaseResult) float64 {
		n := 0
		for _, p := range ps {
			n += p.done
		}
		return float64(n)
	}
	o.note("open_loop_requests", done(l.open), "count")
	o.note("closed_loop_requests", done(l.closed), "count")
	o.note("late_p99_ms", l.lateP99(), "ms")
}

// traceLog collects the RouteTrace of every traced decision, one slice per
// caller so recording needs no lock.
type traceLog [][]gddr.RouteTrace

func (t traceLog) add(w int, tr *gddr.RouteTrace) {
	if tr != nil {
		t[w] = append(t[w], *tr)
	}
}

// routerLayers sets the router-side per-layer metrics from the traces and
// from the router's exported instruments between two scrapes.
func routerLayers(o *outcome, log traceLog, before, after samples) {
	var queue, observe, forward, strategy, evaluate []float64
	for _, w := range log {
		for _, tr := range w {
			queue = append(queue, us(float64(tr.QueueWaitNS)))
			evaluate = append(evaluate, us(float64(tr.EvaluateNS)))
			if !tr.PolicyCacheHit {
				observe = append(observe, us(float64(tr.ObserveNS)))
				forward = append(forward, us(float64(tr.ForwardNS)))
			}
			if !tr.StrategyCacheHit {
				strategy = append(strategy, us(float64(tr.StrategyNS)))
			}
		}
	}
	requests := delta(before, after, "gddr_router_requests_total")
	batches := delta(before, after, "gddr_router_batches_total")
	passes := delta(before, after, "gddr_router_forward_passes_total")
	sHits := delta(before, after, "gddr_router_strategy_cache_hits_total")
	sMisses := delta(before, after, "gddr_router_strategy_cache_misses_total")
	o.set("router.queue_wait_p50_us", quantile(queue, 0.5), "us")
	o.set("router.queue_wait_p99_us", quantile(queue, 0.99), "us")
	o.set("router.batch_size_mean", ratio(requests, batches), "count")
	o.set("router.policy_cache_hit_ratio", ratio(delta(before, after, "gddr_router_policy_cache_hits_total"), batches), "ratio")
	o.set("router.strategy_cache_hit_ratio", ratio(sHits, sHits+sMisses), "ratio")
	o.set("router.forward_passes_per_request", ratio(passes, requests), "ratio")
	o.set("router.observe_us", mean(observe), "us")
	o.set("router.forward_us", mean(forward), "us")
	o.set("router.evaluate_us", mean(evaluate), "us")
	o.set("router.route_us", 1e6*meanDelta(before, after, "gddr_router_route_latency_seconds", ""), "us")
	o.set("gnn.forward_us", mean(forward), "us")
	o.set("gnn.forward_calls", passes, "count")
	o.set("routing.strategy_us", mean(strategy), "us")
	o.set("routing.strategy_builds", sMisses, "count")
}

// quality compares routed max utilisations with the LP optimum and with
// shortest-path routing on the same matrices: mlu[k] is the routed MLU of
// seq[k]. The matrices are consecutive in a generated sequence, so the LP
// solves chain warm starts. Each routed ratio is checked to be at least 1;
// the means of routed/optimum and shortest-path/optimum are returned.
func quality(ctx context.Context, o *outcome, g *gddr.Graph, seq []*gddr.DemandMatrix, mlu []float64) (routed, sp float64, err error) {
	cache := gddr.NewOptimalCache()
	var rs, sps []float64
	for k, dm := range seq {
		opt, err := cache.GetSeqContext(ctx, g, seq, k)
		if err != nil {
			return 0, 0, err
		}
		res, err := routing.ShortestPath(g, dm)
		if err != nil {
			return 0, 0, err
		}
		o.check(checkRatio(fmt.Sprintf("routed/matrix %d", k), mlu[k]/opt))
		rs = append(rs, mlu[k]/opt)
		sps = append(sps, res.MaxUtilization/opt)
	}
	return mean(rs), mean(sps), nil
}
