package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gddr"
	"gddr/internal/env"
	"gddr/internal/metrics"
	"gddr/internal/policy"
	"gddr/internal/rl"
	"gddr/internal/rng"
	"gddr/internal/routing"
)

// trainParams sizes the train workload: the paper's pipeline at laptop
// scale. Cyclical bimodal Abilene sequences train a GNN agent with PPO for
// a fixed step budget; evaluation is held-out Abilene plus zero-shot on
// non-cyclical Géant sequences, against a cold LP cache.
type trainParams struct {
	trainSeqs, testSeqs, seqLen, cycle int
	geantSeqs, geantLen                int
	memory, hidden, msgSteps, workers  int
	budget                             int // environment steps per Agent.Train
	rollout                            int // PPO steps per update; 0 keeps the default
	setups                             int // set-ups timed for setup_s
}

func newTrainParams(cfg config) trainParams {
	p := trainParams{
		trainSeqs: 4, testSeqs: 2, seqLen: 30, cycle: 10,
		geantSeqs: 2, geantLen: 30,
		memory: 3, hidden: 16, msgSteps: 2, workers: 2,
		budget: 1024, setups: 15,
	}
	if cfg.tiny {
		p.trainSeqs, p.testSeqs, p.seqLen, p.cycle = 1, 1, 8, 4
		p.geantSeqs, p.geantLen = 1, 6
		p.budget, p.rollout, p.setups = 96, 32, 2
	}
	return p
}

func (p trainParams) agentOptions(seed int64) []gddr.Option {
	opts := []gddr.Option{
		gddr.WithMemory(p.memory),
		gddr.WithGNNSize(p.hidden, p.msgSteps),
		gddr.WithRolloutWorkers(p.workers),
		gddr.WithTotalSteps(p.budget),
		gddr.WithSeed(seed),
	}
	if p.rollout > 0 {
		ppo := gddr.DefaultTrainConfig(gddr.GNNPolicy).PPO
		ppo.RolloutSteps = p.rollout
		opts = append(opts, gddr.WithPPO(ppo))
	}
	return opts
}

// trainScenario is one repetition's generated input.
type trainScenario struct {
	train, test, geant *gddr.Scenario
}

func newTrainScenario(p trainParams, seed int64) (*trainScenario, error) {
	train, test, err := gddr.AbileneScenario(p.trainSeqs, p.testSeqs, p.seqLen, p.cycle, seed)
	if err != nil {
		return nil, err
	}
	g := gddr.Geant()
	seqs, err := gddr.GenerateSequencesSeeded(gddr.Bimodal(gddr.DefaultBimodalParams()), p.geantSeqs, g.NumNodes(), p.geantLen, seed)
	if err != nil {
		return nil, err
	}
	return &trainScenario{train: train, test: test, geant: gddr.NewScenario(g, seqs)}, nil
}

// evalMatrices counts the matrices an evaluation of s scores: every
// timestep after the first memory ones of every sequence.
func evalMatrices(s *gddr.Scenario, memory int) int {
	n := 0
	for _, item := range s.Items {
		for _, seq := range item.Sequences {
			n += len(seq) - memory
		}
	}
	return n
}

// trainRep is what one repetition (set up, train, evaluate) measured.
type trainRep struct {
	trainS, evalS   float64
	rssMB           float64 // peak RSS during this repetition
	steps, matrices int
	iterMS          []float64 // one PPO iteration: update plus the next rollout
	ratioA, ratioG  float64   // agent / LP optimum: held-out Abilene, zero-shot Géant
	spA, spG        float64   // shortest path / LP optimum on the same matrices
}

// evaluator scores a policy on one scenario against the given cache.
type evaluator func(ctx context.Context, s *gddr.Scenario, cache *gddr.OptimalCache) (float64, error)

// evaluate runs the evaluation phase on a fresh (cold) LP cache: agent and
// shortest path on held-out Abilene, then on zero-shot Géant.
func evaluate(ctx context.Context, p trainParams, sc *trainScenario, eval evaluator, cache *gddr.OptimalCache, rep *trainRep) error {
	start := time.Now()
	var err error
	if rep.ratioA, err = eval(ctx, sc.test, cache); err != nil {
		return err
	}
	if rep.spA, err = gddr.ShortestPathRatio(ctx, sc.test, p.memory, cache); err != nil {
		return err
	}
	if rep.ratioG, err = eval(ctx, sc.geant, cache); err != nil {
		return err
	}
	if rep.spG, err = gddr.ShortestPathRatio(ctx, sc.geant, p.memory, cache); err != nil {
		return err
	}
	rep.evalS = time.Since(start).Seconds()
	rep.matrices = evalMatrices(sc.test, p.memory) + evalMatrices(sc.geant, p.memory)
	return nil
}

// setUp is the train workload's set-up, what setup_s times: scenario
// generation, the train-set LP prewarm, and NewAgent.
func setUp(ctx context.Context, p trainParams, seed int64, opts ...gddr.Option) (*trainScenario, *gddr.OptimalCache, *gddr.Agent, error) {
	sc, err := newTrainScenario(p, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	cache := gddr.NewOptimalCache()
	if _, err := gddr.Prewarm(ctx, sc.train, cache); err != nil {
		return nil, nil, nil, err
	}
	agent, err := gddr.NewAgent(gddr.GNNPolicy, sc.train, append(p.agentOptions(seed), opts...)...)
	if err != nil {
		return nil, nil, nil, err
	}
	return sc, cache, agent, nil
}

// trainOnce is one untraced repetition through the public API: set up,
// train, evaluate.
func trainOnce(ctx context.Context, p trainParams, seed int64) (*trainRep, error) {
	rep := &trainRep{}
	// Training reports finished episodes right after each rollout, so a
	// change in the trained-step count marks an iteration boundary.
	var agent *gddr.Agent
	lastSteps := 0
	var lastAt time.Time
	progress := func(pr gddr.Progress) {
		if pr.Stage != "train" {
			return
		}
		if s := agent.TrainedSteps(); s != lastSteps {
			now := time.Now()
			if lastSteps > 0 {
				rep.iterMS = append(rep.iterMS, ms(now.Sub(lastAt)))
			}
			lastSteps, lastAt = s, now
		}
	}
	runtime.GC()
	resetPeakRSS()
	sc, cache, agent, err := setUp(ctx, p, seed, gddr.WithProgress(progress))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := agent.Train(ctx, sc.train, cache); err != nil {
		return nil, err
	}
	rep.trainS = time.Since(start).Seconds()
	rep.steps = agent.TrainedSteps()
	err = evaluate(ctx, p, sc, agent.Evaluate, gddr.NewOptimalCache(), rep)
	rep.rssMB = peakRSSMB()
	return rep, err
}

// trainTrace accumulates the per-layer figures of the traced repetitions.
type trainTrace struct {
	reps                       int
	collectS, updateS          float64
	updates                    int
	fwdCalls                   int64
	fwdNS, fwdUpdateNS         int64
	steps, stepNS              int64
	flop                       float64
	lpHits, lpMisses           float64
	lpCold, lpWarm             float64
	lpPivots, lpPivotSolves    float64
	lpSolveS, lpSolveCount     float64
	setupSolves, setupSolveSum float64
	evalS                      float64
}

// tracedTrainOnce repeats trainOnce with every layer decorated. It builds
// what gddr.NewAgent and Agent.Train build — same config, same seeded
// parameter stream, same environments — from the internal packages, so a
// timing decorator can sit around the policy (rl.Forwarder) and the
// training environment (env.TrainEnv). Its ratios must equal the untraced
// run's bit for bit.
func tracedTrainOnce(ctx context.Context, p trainParams, seed int64, tr *trainTrace) (*trainRep, error) {
	rep := &trainRep{}
	sc, err := newTrainScenario(p, seed)
	if err != nil {
		return nil, err
	}
	cache := gddr.NewOptimalCache()
	setupReg := metrics.NewRegistry()
	cache.Instrument(setupReg)
	if _, err := gddr.Prewarm(ctx, sc.train, cache); err != nil {
		return nil, err
	}
	ref, err := gddr.NewAgent(gddr.GNNPolicy, sc.train, p.agentOptions(seed)...)
	if err != nil {
		return nil, err
	}
	c := ref.Config
	gcfg := c.GNN
	gcfg.Memory = c.Memory
	pol, err := policy.NewGNN(gcfg, rand.New(rng.New(c.Seed)))
	if err != nil {
		return nil, err
	}
	tp := &tracedPolicy{Forwarder: pol}
	trainer, err := rl.NewTrainer(tp, c.PPO, c.Seed)
	if err != nil {
		return nil, err
	}
	ecfg := env.Config{Memory: c.Memory, Gamma: c.Gamma, Mode: env.FullAction, WeightScale: 2, CapacityAware: c.CapacityAware}
	if ecfg.Gamma <= 0 {
		ecfg.Gamma = routing.DefaultGamma
	}
	envs, err := scenarioEnvs(ctx, sc.train, ecfg, cache)
	if err != nil {
		return nil, err
	}
	sampler, err := c.Sampler.Build(envs)
	if err != nil {
		return nil, err
	}
	menv, err := env.NewMultiSampled(envs, sampler, c.Seed+1)
	if err != nil {
		return nil, err
	}
	te := newTracedEnv(menv)

	hooks := rl.Hooks{OnUpdateStat: func(us rl.UpdateStat) {
		tp.splitUpdate(us.UpdateSeconds)
		tr.collectS += us.CollectSeconds
		tr.updateS += us.UpdateSeconds
		tr.updates++
	}}
	start := time.Now()
	if err := trainer.TrainWorkers(ctx, te, c.TotalSteps, max(c.Workers, 1), hooks); err != nil {
		return nil, err
	}
	rep.trainS = time.Since(start).Seconds()
	rep.steps = trainer.Timesteps()

	tr.reps++
	tr.fwdCalls += tp.calls
	tr.fwdNS += tp.totalNS
	tr.fwdUpdateNS += tp.updateNS
	tr.steps += te.steps.Load()
	tr.stepNS += te.stepNS.Load()
	g := sc.train.Items[0].Graph
	tr.flop = flopPerForward(pol.Params(), g.NumNodes(), g.NumEdges(), gcfg.Steps)
	for _, pt := range setupReg.Snapshot() {
		switch pt.Name {
		case "gddr_lp_cache_misses_total":
			tr.setupSolves += pt.Value
		case "gddr_lp_solve_seconds":
			tr.setupSolveSum += pt.Sum
		}
	}

	// Agent.Evaluate: one deterministic episode per (graph, sequence), the
	// mean of the per-sequence ratios.
	eval := func(ctx context.Context, s *gddr.Scenario, cache *gddr.OptimalCache) (float64, error) {
		envs, err := scenarioEnvs(ctx, s, ecfg, cache)
		if err != nil {
			return 0, err
		}
		var sum float64
		for _, e := range envs {
			r, err := rl.Evaluate(ctx, tp, e, 1)
			if err != nil {
				return 0, err
			}
			sum += r
		}
		return sum / float64(len(envs)), nil
	}
	evalCache := gddr.NewOptimalCache()
	evalReg := metrics.NewRegistry()
	evalCache.Instrument(evalReg)
	if err := evaluate(ctx, p, sc, eval, evalCache, rep); err != nil {
		return nil, err
	}
	tr.evalS += rep.evalS
	for _, pt := range evalReg.Snapshot() {
		switch pt.Name {
		case "gddr_lp_cache_hits_total":
			tr.lpHits += pt.Value
		case "gddr_lp_cache_misses_total":
			tr.lpMisses += pt.Value
		case "gddr_lp_cold_start_total":
			tr.lpCold += pt.Value
		case "gddr_lp_warm_start_total":
			tr.lpWarm += pt.Value
		case "gddr_lp_solve_pivots":
			tr.lpPivots += pt.Sum
			tr.lpPivotSolves += float64(pt.Count)
		case "gddr_lp_solve_seconds":
			tr.lpSolveS += pt.Sum
			tr.lpSolveCount += float64(pt.Count)
		}
	}
	return rep, nil
}

// scenarioEnvs builds one environment per (graph, sequence), in scenario
// order, bound to ctx — what the gddr package builds for Train and
// Evaluate.
func scenarioEnvs(ctx context.Context, s *gddr.Scenario, cfg env.Config, cache *gddr.OptimalCache) ([]*env.Env, error) {
	var envs []*env.Env
	for _, item := range s.Items {
		for _, seq := range item.Sequences {
			e, err := env.New(item.Graph, seq, cfg, cache)
			if err != nil {
				return nil, err
			}
			e.SetContext(ctx)
			envs = append(envs, e)
		}
	}
	return envs, nil
}

// repeatTrain runs repetitions until the measured seconds are spent (at
// least one), checking each: training and evaluation succeed, every ratio
// is at least 1, and every repetition reproduces the first one's ratios.
func repeatTrain(ctx context.Context, cfg config, o *outcome, once func() (*trainRep, error)) ([]*trainRep, error) {
	var reps []*trainRep
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(reps) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := once()
		if err != nil {
			o.check(err)
			if len(reps) == 0 {
				return nil, err
			}
			break
		}
		o.check(nil) // Train + Evaluate completed
		for _, r := range []struct {
			name string
			v    float64
		}{{"agent/abilene", rep.ratioA}, {"shortest-path/abilene", rep.spA}, {"agent/geant", rep.ratioG}, {"shortest-path/geant", rep.spG}} {
			o.check(checkRatio(r.name, r.v))
		}
		if len(reps) > 0 {
			o.check(sameRatios(reps[0], rep))
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func sameRatios(a, b *trainRep) error {
	if a.ratioA != b.ratioA || a.ratioG != b.ratioG || a.spA != b.spA || a.spG != b.spG {
		return fmt.Errorf("repetition ratios differ at one seed: %v/%v/%v/%v vs %v/%v/%v/%v",
			a.ratioA, a.ratioG, a.spA, a.spG, b.ratioA, b.ratioG, b.spA, b.spG)
	}
	return nil
}

func runTrain(ctx context.Context, cfg config) (*outcome, error) {
	p := newTrainParams(cfg)
	o := newOutcome()
	// setup_s: the median of several set-ups, each from scratch.
	var setup []float64
	for k := 0; k < p.setups; k++ {
		start := time.Now()
		if _, _, _, err := setUp(ctx, p, cfg.seed); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	reps, err := repeatTrain(ctx, cfg, o, func() (*trainRep, error) { return trainOnce(ctx, p, cfg.seed) })
	if err != nil {
		return nil, err
	}
	// Repetitions are the rounds of this workload: times and rates report
	// their median over the repetitions.
	var sps, eps, iter, rss, p50s, p90s []float64
	for _, r := range reps {
		rss = append(rss, r.rssMB)
		sps = append(sps, float64(r.steps)/r.trainS)
		eps = append(eps, float64(r.matrices)/r.evalS)
		iter = append(iter, r.iterMS...)
		p50s = append(p50s, quantile(append([]float64(nil), r.iterMS...), 0.5))
		p90s = append(p90s, quantile(append([]float64(nil), r.iterMS...), 0.9))
	}
	first := reps[0]
	o.set("setup_s", median(setup), "s")
	o.set("peak_rss_mb", median(rss), "MiB")
	o.set("throughput_per_s", median(sps), "1/s")
	o.set("p50_ms", median(p50s), "ms")
	o.note("p90_ms", median(p90s), "ms")
	o.note("p99_ms", quantile(iter, 0.99), "ms")
	o.rounds = fmt.Sprintf("steps_per_s=%.4g p50_ms=%.4g p90_ms=%.4g", sps, p50s, p90s)
	o.set("quality_ratio", first.ratioA, "ratio")
	o.note("steps_per_s", median(sps), "1/s")
	o.note("eval_matrices_per_s", median(eps), "1/s")
	o.note("ratio_abilene", first.ratioA, "ratio")
	o.note("ratio_geant", first.ratioG, "ratio")
	o.note("sp_ratio_abilene", first.spA, "ratio")
	o.note("sp_ratio_geant", first.spG, "ratio")
	o.note("repetitions", float64(len(reps)), "count")
	o.note("iterations", float64(len(iter)), "count")
	if !cfg.trace {
		return o, nil
	}

	untraced := o.metrics
	o.metrics = map[string]metric{}
	tr := &trainTrace{}
	treps, err := repeatTrain(ctx, cfg, o, func() (*trainRep, error) { return tracedTrainOnce(ctx, p, cfg.seed, tr) })
	if err != nil {
		return nil, err
	}
	o.check(sameRatios(first, treps[0])) // tracing must not change results
	var tsps []float64
	for _, r := range treps {
		tsps = append(tsps, float64(r.steps)/r.trainS)
	}
	n := float64(tr.reps)
	o.set("rl.update_s", tr.updateS/n, "s")
	o.set("rl.collect_s", tr.collectS/n, "s")
	o.set("rl.updates", float64(tr.updates)/n, "count")
	o.set("gnn.forward_us", us(ratio(float64(tr.fwdNS), float64(tr.fwdCalls))), "us")
	o.set("gnn.forward_calls", float64(tr.fwdCalls)/n, "count")
	o.set("ad.backward_optim_s", (tr.updateS-float64(tr.fwdUpdateNS)/1e9)/n, "s")
	o.set("mat.flop_per_forward", tr.flop, "flop")
	o.set("mat.gflops", ratio(tr.flop*float64(tr.fwdCalls), float64(tr.fwdNS)), "GFLOP/s")
	o.set("env.step_us", us(ratio(float64(tr.stepNS), float64(tr.steps))), "us")
	o.set("env.steps", float64(tr.steps)/n, "count")
	o.set("lp.solves", tr.lpMisses/n, "count")
	o.set("lp.cold", tr.lpCold/n, "count")
	o.set("lp.warm", tr.lpWarm/n, "count")
	o.set("lp.pivots_per_solve", ratio(tr.lpPivots, tr.lpPivotSolves), "count")
	o.set("lp.solve_ms", 1e3*ratio(tr.lpSolveS, tr.lpSolveCount), "ms")
	o.set("lp.cache_hit_ratio", ratio(tr.lpHits, tr.lpHits+tr.lpMisses), "ratio")
	o.set("trace.overhead_pct", 100*(untraced["throughput_per_s"].Value/median(tsps)-1), "%")
	o.note("lp.setup_solves", tr.setupSolves/n, "count")
	o.note("lp.setup_solve_ms", 1e3*ratio(tr.setupSolveSum, tr.setupSolves), "ms")
	o.note("traced_steps_per_s", median(tsps), "1/s")
	o.note("update_share_pct", 100*ratio(tr.updateS, tr.updateS+tr.collectS), "%")
	o.note("lp_eval_share_pct", 100*ratio(tr.lpSolveS, tr.evalS), "%")
	for name, m := range untraced {
		o.note("untraced."+name, m.Value, m.Unit)
	}
	return o, nil
}
