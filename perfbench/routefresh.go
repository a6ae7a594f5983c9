package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gddr"
	"gddr/internal/metrics"
	"gddr/internal/policy"
)

// routeFreshParams sizes the route-fresh workload: library Engine.Route on
// Géant with a capacity-aware cold-start GNN, every request carrying a
// different bimodal matrix so neither fast-path cache can answer.
type routeFreshParams struct {
	serveParams
	pool     int // distinct demand matrices, sent in order and cycled
	lpSample int // consecutive open-loop decisions LP-checked after the run
	builds   int // NewEngine builds timed for setup_s
}

func newRouteFreshParams(cfg config) routeFreshParams {
	p := routeFreshParams{
		serveParams: serveParams{rate: 600, callers: runtime.GOMAXPROCS(0), warmup: 500 * time.Millisecond, rounds: 10},
		pool:        4096,
		lpSample:    32,
		builds:      101,
	}
	if cfg.tiny {
		p.rate, p.warmup, p.rounds, p.pool, p.lpSample, p.builds = 200, 0, 1, 64, 2, 2
	}
	return p
}

// servingAgent is the cold-start agent gddr-serve's default tenant serves:
// an untrained GNN (memory 3, hidden 16, 2 message-passing steps) over
// capacity-aware base weights.
func servingAgent() (*gddr.Agent, error) {
	return gddr.NewAgent(gddr.GNNPolicy, nil, gddr.WithMemory(serveMemory), gddr.WithGNNSize(16, 2))
}

// serveMemory is the demand-history length gddr-serve defaults to.
const serveMemory = 3

// freshRun is one measured pass of the route-fresh load on one engine.
type freshRun struct {
	*load
	first         int             // number of the first timed request
	mlu           map[int]float64 // sampled open-loop request -> routed MLU
	traces        traceLog
	before, after samples
	stats         gddr.EngineStats
}

func driveFresh(ctx context.Context, cfg config, p routeFreshParams, g *gddr.Graph, pool []*gddr.DemandMatrix, engine *gddr.Engine) (*freshRun, error) {
	run := &freshRun{mlu: map[int]float64{}, traces: make(traceLog, p.callers)}
	var mu sync.Mutex
	sampled := map[int]bool{}
	do := func(ctx context.Context, w, i int) (func() error, error) {
		dm := pool[i%len(pool)]
		d, err := engine.Route(ctx, dm)
		if err != nil {
			return nil, err
		}
		return func() error {
			run.traces.add(w, d.Trace)
			mu.Lock()
			if sampled[i] {
				run.mlu[i] = d.MaxUtilization
			}
			mu.Unlock()
			return checkDecision(g, dm, d)
		}, nil
	}
	var stats0 gddr.EngineStats
	var err error
	run.load, err = phases(ctx, cfg, p.serveParams, do, nil, func(first int) error {
		run.first = first
		for k := 0; k < p.lpSample; k++ {
			sampled[first+k] = true
		}
		stats0 = engine.Stats()
		var err error
		run.before, err = scrapeRegistry(engine.Metrics())
		return err
	})
	if err != nil {
		return nil, err
	}
	if run.after, err = scrapeRegistry(engine.Metrics()); err != nil {
		return nil, err
	}
	run.stats = engine.Stats()
	run.stats.Batches -= stats0.Batches
	run.stats.PolicyCacheHits -= stats0.PolicyCacheHits
	return run, nil
}

func runRouteFresh(ctx context.Context, cfg config) (*outcome, error) {
	p := newRouteFreshParams(cfg)
	o := newOutcome()
	g := gddr.Geant()
	seqs, err := gddr.GenerateSequencesSeeded(gddr.Bimodal(gddr.DefaultBimodalParams()), 1, g.NumNodes(), p.pool, cfg.seed)
	if err != nil {
		return nil, err
	}
	pool := seqs[0]
	agent, err := servingAgent()
	if err != nil {
		return nil, err
	}

	// setup_s: NewEngine, probe forward pass included, the median
	// of many builds; the last build serves.
	var setup []float64
	var engine *gddr.Engine
	for b := 0; b < p.builds; b++ {
		if engine != nil {
			engine.Close()
		}
		start := time.Now()
		if engine, err = gddr.NewEngine(agent, g); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	run, err := driveFresh(ctx, cfg, p, g, pool, engine)
	engine.Close()
	if err != nil {
		return nil, err
	}
	run.record(o)
	o.set("setup_s", median(setup), "s")
	o.set("peak_rss_mb", peakRSSMB(), "MiB")

	// The first timed decisions against the LP optimum and shortest path.
	// Their matrices are consecutive, so the LP solves chain warm starts.
	var seq []*gddr.DemandMatrix
	for k := 0; k < p.lpSample; k++ {
		seq = append(seq, pool[(run.first+k)%len(pool)])
	}
	var checked []*gddr.DemandMatrix
	var mlu []float64
	for k, dm := range seq {
		if m, ok := run.mlu[run.first+k]; ok { // a failed request has no decision
			checked = append(checked, dm)
			mlu = append(mlu, m)
		}
	}
	routed, sp, err := quality(ctx, o, g, checked, mlu)
	if err != nil {
		return nil, err
	}
	o.set("quality_ratio", routed, "ratio")
	o.note("sp_ratio", sp, "ratio")
	o.note("lp_checked", float64(len(mlu)), "count")
	o.note("capacity_rps", o.metrics["throughput_per_s"].Value, "1/s")
	o.note("open_loop_rate", p.rate, "1/s")
	late := run.lateP99()
	hit := ratio(float64(run.stats.PolicyCacheHits), float64(run.stats.Batches))
	o.note("policy_cache_hit_share", hit, "ratio")
	guardFresh(o, hit, late)
	if !cfg.trace {
		return o, nil
	}

	untraced := o.metrics
	o.metrics = map[string]metric{}
	reg := metrics.NewRegistry()
	engine, err = gddr.NewEngine(agent, g, gddr.WithTracing(true), gddr.WithMetricsRegistry(reg))
	if err != nil {
		return nil, err
	}
	trun, err := driveFresh(ctx, cfg, p, g, pool, engine)
	engine.Close()
	if err != nil {
		return nil, err
	}
	trun.count(o)
	routerLayers(o, trun.traces, trun.before, trun.after)
	// The serving policy's shapes; its weights do not matter here.
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: 3, Hidden: 16, Steps: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	flop := flopPerForward(pol.Params(), g.NumNodes(), g.NumEdges(), 2)
	o.set("mat.flop_per_forward", flop, "flop")
	o.set("mat.gflops", ratio(flop, 1e3*o.metrics["gnn.forward_us"].Value), "GFLOP/s")
	o.set("load.late_p99_ms", trun.lateP99(), "ms")
	o.set("trace.overhead_pct", 100*(untraced["throughput_per_s"].Value/trun.capacity()-1), "%")
	for name, m := range untraced {
		o.note("untraced."+name, m.Value, m.Unit)
	}
	return o, nil
}

// guardFresh reports the run invalid when it lacked route-fresh's stated
// properties: every batch misses the policy cache, and the open-loop
// generator kept its schedule.
func guardFresh(o *outcome, hitShare, lateP99 float64) {
	if hitShare > 0.01 {
		o.invalidf("policy-cache hit share %.4f; route-fresh needs every request to miss", hitShare)
	}
	if lateP99 > maxLateMS {
		o.invalidf("open-loop generator ran %.3f ms late at p99 (limit %g ms)", lateP99, maxLateMS)
	}
}
