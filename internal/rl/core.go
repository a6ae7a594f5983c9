package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/mat"
	"gddr/internal/nn"
	"gddr/internal/rng"
)

// Hooks are the training-loop callbacks. OnEpisode fires once per finished
// episode, in deterministic (worker-order) sequence, before the update that
// consumes the rollout. OnUpdateStat fires after every completed update with
// that update's timing and loss summary — purely informational, it cannot
// abort training. OnUpdate fires last, after every completed update, with
// the cumulative timestep count — the only point where the trainer's state
// is checkpoint-consistent; returning an error aborts training.
type Hooks struct {
	OnEpisode    func(EpisodeStat)
	OnUpdateStat func(UpdateStat)
	OnUpdate     func(timesteps int) error
}

// UpdateStat summarises one completed gradient update for telemetry:
// counters at the update boundary, the rollout/update wall-clock split, and
// the losses of the last minibatch consumed. Losses are raw per-sample
// means as optimised (policy loss includes its sign; value loss is the
// unweighted squared error).
type UpdateStat struct {
	Timesteps      int     // cumulative environment steps after this update
	Steps          int     // environment steps consumed by this update's rollout
	Episodes       int     // cumulative finished episodes after this update
	PolicyLoss     float64 // last minibatch mean policy (surrogate) loss
	ValueLoss      float64 // last minibatch mean value loss
	CollectSeconds float64 // wall-clock spent collecting the rollout
	UpdateSeconds  float64 // wall-clock spent in the gradient update
}

// TrainState is the serialisable training state at an update boundary:
// counters, the update stream, the optimiser moments, and every rollout
// worker's stream and environment state. Together with the parameter
// values it resumes a run bit-identically.
type TrainState struct {
	Algo         string        `json:"algo"`
	Timesteps    int           `json:"timesteps"`
	Episodes     int           `json:"episodes"`
	UpdateRNG    uint64        `json:"update_rng"`
	Opt          nn.AdamState  `json:"opt"`
	WorkerStates []WorkerState `json:"worker_states,omitempty"`
}

// Algorithm is the trainer contract shared by PPO and A2C: both are a
// Gaussian-policy collector/updater pair differing only in the update rule.
type Algorithm interface {
	// Train runs the algorithm with a single rollout worker (the historical
	// entry point).
	Train(ctx context.Context, e env.Interface, totalSteps int, onEpisode func(EpisodeStat)) error
	// TrainWorkers runs the algorithm with parallel rollout collection
	// until the cumulative timestep counter reaches totalSteps.
	TrainWorkers(ctx context.Context, e env.Interface, totalSteps, workers int, hooks Hooks) error
	// Params returns all trained parameters (policy + log-std).
	Params() []*ad.Param
	// LogStd returns the shared Gaussian log standard deviation.
	LogStd() float64
	// Timesteps returns the cumulative environment steps trained so far.
	Timesteps() int
	// State captures the resumable training state at the last update
	// boundary.
	State() (*TrainState, error)
	// Restore rewinds the trainer to a captured state, recreating its
	// rollout workers as clones of e.
	Restore(st *TrainState, e env.Interface) error
}

// Algorithm names as recorded in TrainState.
const (
	AlgoPPO = "ppo"
	AlgoA2C = "a2c"
)

// core is the trainer machinery shared by PPO and A2C: the Gaussian action
// head over a policy, the Adam optimiser, the deterministic streams, the
// rollout collector, and the training loop. The algorithms layer their
// update rules on top.
type core struct {
	algo   string
	pol    Forwarder
	logStd *ad.Param
	opt    *nn.Adam
	seed   int64
	src    *rng.Source // update (minibatch shuffle) stream
	rng    *rand.Rand
	col    *collector

	// tapes are the per-sample forward tapes of the gradient pass (see
	// update.go), kept across minibatches so their arenas stay warm.
	tapes []*ad.Tape

	episodes  int
	timesteps int

	// Last-minibatch losses, recorded by the algorithm's update rule for
	// the OnUpdateStat hook.
	lastPolicyLoss float64
	lastValueLoss  float64
}

// recordLosses stores the losses of the minibatch just optimised so run can
// report them through Hooks.OnUpdateStat.
func (c *core) recordLosses(policy, value float64) {
	c.lastPolicyLoss = policy
	c.lastValueLoss = value
}

func newCore(algo string, pol Forwarder, lr, initialLogStd float64, seed int64) (*core, error) {
	if pol == nil {
		return nil, fmt.Errorf("rl: trainer needs a policy")
	}
	logStd := ad.NewParam(algo+".log_std", mat.FromSlice(1, 1, []float64{initialLogStd}))
	params := append(pol.Params(), logStd)
	src := rng.New(seed).Fork(streamUpdate)
	return &core{
		algo:   algo,
		pol:    pol,
		logStd: logStd,
		opt:    nn.NewAdam(params, lr),
		seed:   seed,
		src:    src,
		rng:    rand.New(src),
	}, nil
}

// Params returns all trained parameters (policy + log-std).
func (c *core) Params() []*ad.Param { return append(c.pol.Params(), c.logStd) }

// LogStd returns the current log standard deviation of the Gaussian head.
func (c *core) LogStd() float64 { return c.logStd.Value.Data[0] }

// Timesteps returns the cumulative environment steps trained so far.
func (c *core) Timesteps() int { return c.timesteps }

// sample draws an action from the current Gaussian policy using r (no
// gradients kept).
func (c *core) sample(obs *env.Observation, r *rand.Rand) (action []float64, logp, value float64, err error) {
	t := getTape()
	defer putTape(t)
	mean, val, err := c.pol.Forward(t, obs)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("rl: policy forward: %w", err)
	}
	std := math.Exp(c.logStd.Value.Data[0])
	k := len(mean.Value.Data)
	action = make([]float64, k)
	logp = -0.5 * float64(k) * math.Log(2*math.Pi)
	logp -= float64(k) * c.logStd.Value.Data[0]
	for i, mu := range mean.Value.Data {
		z := r.NormFloat64()
		action[i] = mu + std*z
		logp -= 0.5 * z * z
	}
	return action, logp, val.Value.Data[0], nil
}

// act is sample drawing from the update stream — a convenience for
// single-stream uses (tests); rollout workers use their own streams.
func (c *core) act(obs *env.Observation) (action []float64, logp, value float64, err error) {
	return c.sample(obs, c.rng)
}

// value returns the deterministic value estimate for obs, consuming no
// randomness (the GAE bootstrap).
func (c *core) value(obs *env.Observation) (float64, error) {
	t := getTape()
	defer putTape(t)
	_, val, err := c.pol.Forward(t, obs)
	if err != nil {
		return 0, fmt.Errorf("rl: value forward: %w", err)
	}
	return val.Value.Data[0], nil
}

// clampLogStd keeps exploration alive: a collapsed (or exploded) standard
// deviation freezes training because identical actions yield zero
// advantages.
func (c *core) clampLogStd() {
	if v := c.logStd.Value.Data[0]; v < -2.5 {
		c.logStd.Value.Data[0] = -2.5
	} else if v > 0.5 {
		c.logStd.Value.Data[0] = 0.5
	}
}

// run is the shared training loop: collect a rollout (in parallel across
// the workers), report its episodes, apply the algorithm's update, repeat
// until the cumulative step counter reaches totalSteps. Cancellation is
// checked once per rollout: when ctx is done, run returns its error before
// collecting the next batch, leaving the parameters at the last completed
// update.
func (c *core) run(ctx context.Context, e env.Interface, totalSteps, workers, rolloutSteps int, g gaeParams, update func([]*sample) error, hooks Hooks) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if totalSteps < 1 {
		return fmt.Errorf("rl: totalSteps must be positive, got %d", totalSteps)
	}
	if workers < 1 {
		workers = 1
	}
	if c.col == nil {
		col, err := newCollector(e, workers, c.seed)
		if err != nil {
			return err
		}
		c.col = col
	} else {
		if len(c.col.workers) != workers {
			return fmt.Errorf("rl: trainer state has %d rollout workers, asked to train with %d (worker count is part of the determinism contract)",
				len(c.col.workers), workers)
		}
		// A later Train call may pass a rebuilt environment (fresh context
		// and caches); move the workers onto it instead of stepping stale
		// clones.
		col, err := c.col.rebase(e, c.seed)
		if err != nil {
			return err
		}
		c.col = col
	}
	c.col.setBudget(totalSteps)
	for c.timesteps < totalSteps {
		if err := ctx.Err(); err != nil {
			return err
		}
		steps := rolloutSteps
		if rem := totalSteps - c.timesteps; rem < steps {
			steps = rem
		}
		//gddr:allow determinism collect wall-clock feeds UpdateStat metrics only, never training results
		collectStart := time.Now()
		ro, err := c.col.collect(steps, c.sample, c.value, g, c.timesteps, c.episodes)
		if err != nil {
			return err
		}
		//gddr:allow determinism collect wall-clock feeds UpdateStat metrics only, never training results
		collectSeconds := time.Since(collectStart).Seconds()
		c.timesteps += steps
		c.episodes += len(ro.stats)
		if hooks.OnEpisode != nil {
			for _, st := range ro.stats {
				hooks.OnEpisode(st)
			}
		}
		//gddr:allow determinism update wall-clock feeds UpdateStat metrics only, never training results
		updateStart := time.Now()
		if err := update(ro.samples); err != nil {
			return err
		}
		//gddr:allow determinism update wall-clock feeds UpdateStat metrics only, never training results
		updateSeconds := time.Since(updateStart).Seconds()
		if err := nn.CheckFinite(c.Params()); err != nil {
			return fmt.Errorf("rl: after update at step %d: %w", c.timesteps, err)
		}
		if hooks.OnUpdateStat != nil {
			hooks.OnUpdateStat(UpdateStat{
				Timesteps:      c.timesteps,
				Steps:          steps,
				Episodes:       c.episodes,
				PolicyLoss:     c.lastPolicyLoss,
				ValueLoss:      c.lastValueLoss,
				CollectSeconds: collectSeconds,
				UpdateSeconds:  updateSeconds,
			})
		}
		if hooks.OnUpdate != nil {
			if err := hooks.OnUpdate(c.timesteps); err != nil {
				return err
			}
		}
	}
	return nil
}

// State implements Algorithm. The returned state describes the last update
// boundary (collections aborted by cancellation are not included), so a
// checkpoint written after a cancelled Train resumes bit-identically with
// the uninterrupted run.
func (c *core) State() (*TrainState, error) {
	st := &TrainState{
		Algo:      c.algo,
		Timesteps: c.timesteps,
		Episodes:  c.episodes,
		UpdateRNG: c.src.State(),
		Opt:       c.opt.State(),
	}
	if c.col != nil {
		if !c.col.checkpointable {
			return nil, fmt.Errorf("rl: environment does not implement env.TrainEnv; training state cannot be checkpointed")
		}
		st.WorkerStates = append([]WorkerState(nil), c.col.states...)
	}
	return st, nil
}

// Restore implements Algorithm: it rewinds counters, streams, optimiser
// moments, and rollout workers (recreated as clones of e) to a captured
// state. The parameter values themselves are restored separately (see
// nn.RestoreParams); algorithm kind and worker count must match the state.
func (c *core) Restore(st *TrainState, e env.Interface) error {
	if st == nil {
		return fmt.Errorf("rl: nil train state")
	}
	if st.Algo != c.algo {
		return fmt.Errorf("rl: train state is for algorithm %q, trainer is %q", st.Algo, c.algo)
	}
	if st.Timesteps < 0 || st.Episodes < 0 {
		return fmt.Errorf("rl: train state has negative counters (%d steps, %d episodes)", st.Timesteps, st.Episodes)
	}
	if err := c.opt.Restore(st.Opt); err != nil {
		return err
	}
	var col *collector
	if len(st.WorkerStates) > 0 {
		var err error
		col, err = newCollector(e, len(st.WorkerStates), c.seed)
		if err != nil {
			return err
		}
		if !col.checkpointable {
			return fmt.Errorf("rl: %T does not implement env.TrainEnv; cannot restore worker state", e)
		}
		for i, ws := range st.WorkerStates {
			if err := col.restoreWorker(i, ws); err != nil {
				return err
			}
		}
		col.states = append([]WorkerState(nil), st.WorkerStates...)
	}
	c.col = col
	c.timesteps = st.Timesteps
	c.episodes = st.Episodes
	c.src.SetState(st.UpdateRNG)
	c.rng = rand.New(c.src)
	return nil
}
