package rl

import (
	"fmt"
	"math/rand"
	"sync"

	"gddr/internal/env"
	"gddr/internal/rng"
)

// The training pipeline is split into a collector and an updater: N rollout
// workers step independent environment clones in parallel (the forward pass
// only reads parameters, so workers share the policy), and the update pass
// consumes the merged rollout (its per-sample passes run in parallel but
// sum gradients in a fixed order; see update.go).
//
// Determinism contract: worker i draws actions from its own stream forked
// from (seed, worker) and steps its own environment clone reseeded from
// (seed, worker), and the merged rollout concatenates worker slices in
// fixed worker order — so for a given (seed, workers) pair the sample
// sequence, the episode statistics, and every subsequent update are
// bit-identical no matter how the goroutines interleave. Results differ
// across different worker counts (the streams differ), which is why the
// worker count is recorded in checkpoints and validated on resume.

// Deterministic stream tags per trainer seed: tag 0 is the update
// (minibatch shuffle) stream, tags 1+2i / 2+2i are worker i's action and
// environment streams.
const (
	streamUpdate    = 0
	streamWorkerAct = 1
	streamWorkerEnv = 2
)

// actorFunc samples an action for obs from r, returning the action, its log
// probability, and the value estimate.
type actorFunc func(obs *env.Observation, r *rand.Rand) (action []float64, logp, value float64, err error)

// valueFunc returns the deterministic value estimate for obs (the GAE
// bootstrap; it must not consume randomness).
type valueFunc func(obs *env.Observation) (float64, error)

// gaeParams are the advantage-estimation settings shared by the trainers.
type gaeParams struct {
	discount     float64
	lambda       float64
	rewardOffset float64
}

// sample holds one transition of a rollout.
type sample struct {
	obs    *env.Observation
	action []float64
	logp   float64
	value  float64
	reward float64
	done   bool
	adv    float64
	ret    float64
}

// pendingEpisode records an episode that finished inside a worker slice,
// before global episode/timestep numbering is assigned at merge time.
type pendingEpisode struct {
	steps     int
	reward    float64
	endOffset int // 1-based sample offset within the worker slice
}

// rollout is one merged collection batch: samples in fixed worker order
// with GAE already computed per worker slice, plus the episode statistics
// finished during the batch, numbered globally.
type rollout struct {
	samples []*sample
	stats   []EpisodeStat
}

// WorkerState is the serialisable state of one rollout worker at an update
// boundary: its action stream, its environment's episode state, and the
// running episode accumulators.
type WorkerState struct {
	RNG       uint64    `json:"rng"`
	EpReward  float64   `json:"ep_reward"`
	EpSteps   int       `json:"ep_steps"`
	InEpisode bool      `json:"in_episode"`
	Env       env.State `json:"env"`
}

// worker is one rollout collector: an environment (clone), an action
// stream, and the episode state carried across rollouts.
type worker struct {
	id  int
	env env.Interface
	ten env.TrainEnv // non-nil when env supports cloning/checkpointing
	src *rng.Source
	r   *rand.Rand

	obs      *env.Observation
	started  bool // an episode is in progress (obs is valid)
	epReward float64
	epSteps  int
}

// collect steps the worker's environment quota times, computes GAE over the
// slice (bootstrapping an unfinished trailing episode from the
// deterministic value head), and returns the slice plus the episodes that
// finished inside it.
func (w *worker) collect(quota int, act actorFunc, val valueFunc, g gaeParams) ([]*sample, []pendingEpisode, error) {
	samples := make([]*sample, 0, quota)
	var eps []pendingEpisode
	for len(samples) < quota {
		if !w.started {
			obs, err := w.env.Reset()
			if err != nil {
				return nil, nil, fmt.Errorf("rl: reset: %w", err)
			}
			w.obs = obs
			w.started = true
		}
		action, logp, value, err := act(w.obs, w.r)
		if err != nil {
			return nil, nil, err
		}
		next, reward, done, err := w.env.Step(action)
		if err != nil {
			return nil, nil, fmt.Errorf("rl: env step: %w", err)
		}
		shifted := reward
		if reward != 0 {
			shifted = reward + g.rewardOffset
		}
		samples = append(samples, &sample{
			obs: w.obs, action: action, logp: logp, value: value,
			reward: shifted, done: done,
		})
		w.epReward += reward
		w.epSteps++
		if done {
			eps = append(eps, pendingEpisode{steps: w.epSteps, reward: w.epReward, endOffset: len(samples)})
			w.epReward, w.epSteps = 0, 0
			w.started = false
			w.obs = nil
		} else {
			w.obs = next
		}
	}
	// Bootstrap value for the (possibly) unfinished trailing episode.
	var lastValue float64
	if !samples[len(samples)-1].done {
		v, err := val(w.obs)
		if err != nil {
			return nil, nil, err
		}
		lastValue = v
	}
	computeGAE(samples, lastValue, g.discount, g.lambda)
	return samples, eps, nil
}

// collector owns the rollout workers and the update-boundary state
// snapshot used for checkpointing.
type collector struct {
	base    env.Interface // the environment the workers were cloned from
	workers []*worker
	// states is the per-worker state at the last update boundary. A
	// cancelled collection can abort workers mid-rollout; checkpoints must
	// describe the last consistent boundary, so the snapshot refreshes only
	// after a fully successful collect.
	states         []WorkerState
	checkpointable bool
}

// newCollector clones the environment once per worker with deterministic
// per-worker streams. Environments that do not implement env.TrainEnv are
// limited to a single worker (which then steps the caller's environment
// directly) and cannot be checkpointed.
func newCollector(e env.Interface, workers int, seed int64) (*collector, error) {
	if workers < 1 {
		workers = 1
	}
	te, cloneable := e.(env.TrainEnv)
	if workers > 1 && !cloneable {
		return nil, fmt.Errorf("rl: %T does not implement env.TrainEnv; parallel collection needs cloneable environments", e)
	}
	ws := make([]*worker, workers)
	for i := range ws {
		var wenv env.Interface
		var wten env.TrainEnv
		if cloneable {
			c := te.Clone()
			c.Reseed(rng.DeriveSeed(seed, uint64(streamWorkerEnv+2*i)))
			wenv, wten = c, c
		} else {
			wenv = e
		}
		src := rng.New(seed).Fork(uint64(streamWorkerAct + 2*i))
		ws[i] = &worker{id: i, env: wenv, ten: wten, src: src, r: rand.New(src)}
	}
	col := &collector{base: e, workers: ws, checkpointable: cloneable}
	if cloneable {
		col.states = col.capture()
	}
	return col, nil
}

// rebase moves the collector onto a different base environment, carrying
// the last update-boundary state across: a later Train call passes a
// freshly built environment (new context, new LP cache, same scenario),
// and the workers must step clones of *that* one rather than clones bound
// to a stale context. Checkpointable collectors rebuild their workers from
// the boundary snapshot — which also makes continue-after-cancel resume
// from the last completed update, exactly like a checkpoint round-trip.
func (c *collector) rebase(e env.Interface, seed int64) (*collector, error) {
	if c.base == e {
		return c, nil
	}
	if !c.checkpointable {
		// Single worker stepping the caller's environment directly: swap it
		// in and start a fresh episode, keeping the worker's action stream.
		w := c.workers[0]
		w.env = e
		w.started = false
		w.obs = nil
		w.epReward, w.epSteps = 0, 0
		c.base = e
		return c, nil
	}
	col, err := newCollector(e, len(c.workers), seed)
	if err != nil {
		return nil, err
	}
	if !col.checkpointable {
		return nil, fmt.Errorf("rl: %T does not implement env.TrainEnv; cannot carry training state onto it", e)
	}
	for i, st := range c.states {
		if err := col.restoreWorker(i, st); err != nil {
			return nil, err
		}
	}
	col.states = append([]WorkerState(nil), c.states...)
	return col, nil
}

// setBudget tells every worker environment its share of the total training
// budget, which drives curriculum-sampler progress. Shares follow the same
// worker-order split as rollout quotas, so progress is deterministic (and
// approximately, not exactly, equal to the per-worker step count).
func (c *collector) setBudget(total int) {
	if !c.checkpointable {
		return
	}
	n := len(c.workers)
	for i, w := range c.workers {
		share := total / n
		if i < total%n {
			share++
		}
		w.ten.SetBudget(share)
	}
}

// capture snapshots every worker at the current boundary.
func (c *collector) capture() []WorkerState {
	out := make([]WorkerState, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerState{
			RNG:       w.src.State(),
			EpReward:  w.epReward,
			EpSteps:   w.epSteps,
			InEpisode: w.started,
			Env:       w.ten.State(),
		}
	}
	return out
}

// restoreWorker rewinds worker i to a captured state and rebuilds its
// observation from the environment state.
func (c *collector) restoreWorker(i int, st WorkerState) error {
	w := c.workers[i]
	if err := w.ten.Restore(st.Env); err != nil {
		return fmt.Errorf("rl: worker %d: %w", i, err)
	}
	w.src.SetState(st.RNG)
	w.r = rand.New(w.src)
	w.epReward = st.EpReward
	w.epSteps = st.EpSteps
	w.started = st.InEpisode
	w.obs = nil
	if st.InEpisode {
		obs, err := w.ten.Observation()
		if err != nil {
			return fmt.Errorf("rl: worker %d: %w", i, err)
		}
		w.obs = obs
	}
	return nil
}

// collect gathers steps transitions across the workers in parallel and
// merges the slices in fixed worker order, assigning global episode and
// timestep numbers on top of the given counters.
func (c *collector) collect(steps int, act actorFunc, val valueFunc, g gaeParams, baseStep, baseEpisode int) (*rollout, error) {
	n := len(c.workers)
	quotas := make([]int, n)
	for i := range quotas {
		quotas[i] = steps / n
		if i < steps%n {
			quotas[i]++
		}
	}
	slices := make([][]*sample, n)
	episodes := make([][]pendingEpisode, n)
	errs := make([]error, n)
	if n == 1 {
		slices[0], episodes[0], errs[0] = c.workers[0].collect(quotas[0], act, val, g)
	} else {
		var wg sync.WaitGroup
		for i, w := range c.workers {
			if quotas[i] == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				slices[i], episodes[i], errs[i] = w.collect(quotas[i], act, val, g)
			}(i, w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ro := &rollout{samples: make([]*sample, 0, steps)}
	ts, ep := baseStep, baseEpisode
	for i := range c.workers {
		for _, pe := range episodes[i] {
			meanRatio := 0.0
			if pe.steps > 0 {
				meanRatio = -pe.reward / float64(pe.steps)
			}
			ro.stats = append(ro.stats, EpisodeStat{
				Episode:     ep,
				Timestep:    ts + pe.endOffset,
				Steps:       pe.steps,
				TotalReward: pe.reward,
				MeanRatio:   meanRatio,
			})
			ep++
		}
		ts += len(slices[i])
		ro.samples = append(ro.samples, slices[i]...)
	}
	if c.checkpointable {
		c.states = c.capture()
	}
	return ro, nil
}
