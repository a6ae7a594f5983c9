// Package rl implements Proximal Policy Optimisation (Schulman et al.,
// 2017) with generalised advantage estimation, clipped surrogate objective,
// value loss, entropy bonus, and a diagonal Gaussian action head with a
// single learned log standard deviation. It is a from-scratch substitute for
// the stable-baselines PPO2 implementation the paper trains with; the shared
// scalar log-std keeps the action distribution well defined when the action
// dimensionality varies across topologies (the generalisation experiments).
//
// Training is a collector/updater pair: parallel rollout workers step
// independent environment clones on deterministic per-worker streams, and
// the update pass consumes the merged rollout in fixed worker order (see
// collector.go for the determinism contract). The update itself runs each
// minibatch's per-sample forward and backward passes in parallel on
// GOMAXPROCS goroutines and adds their gradients in a fixed order, so
// trained parameters do not depend on GOMAXPROCS (see update.go). The
// synchronous advantage-actor-critic trainer (a2c.go) shares the same
// collector, rollout buffer and gradient pass, differing only in its
// per-sample policy loss and in taking one step per rollout.
package rl

import (
	"context"
	"fmt"
	"math"

	"gddr/internal/ad"
	"gddr/internal/env"
)

// Config holds the PPO hyperparameters (defaults mirror PPO2).
type Config struct {
	RolloutSteps  int     // environment steps per update batch
	MiniBatch     int     // samples per gradient step
	Epochs        int     // passes over each rollout
	Discount      float64 // reward discount γ
	GAELambda     float64 // GAE λ
	ClipEps       float64 // surrogate clipping ε
	LearningRate  float64
	ValueCoef     float64
	EntropyCoef   float64
	MaxGradNorm   float64
	InitialLogStd float64
	// RewardOffset is added to every reward before it enters GAE and the
	// value targets. GDDR rewards are -U_agent/U_opt <= -1, so an offset of
	// +1 re-centres the return scale near zero without changing the optimal
	// policy (a constant per-step baseline), which keeps the value loss
	// from dominating shared policy/value trunks early in training.
	// Episode statistics always report raw rewards.
	RewardOffset float64
}

// DefaultConfig returns PPO2-style defaults tuned for this problem scale:
// shorter rollouts (more updates per training budget) and a tighter initial
// action standard deviation, because weight noise is amplified
// exponentially by the action-to-weight mapping.
func DefaultConfig() Config {
	return Config{
		RolloutSteps: 256,
		MiniBatch:    32,
		Epochs:       4,
		// The full-action routing environment is a contextual bandit: the
		// demand sequence evolves independently of the agent's actions, so
		// future rewards carry no credit for the current action and a zero
		// discount gives the exact, lowest-variance policy gradient. The
		// iterative policy overrides this (see gddr.DefaultTrainConfig):
		// within one demand matrix its actions do shape later observations.
		Discount:      0,
		GAELambda:     0.95,
		ClipEps:       0.2,
		LearningRate:  5e-4,
		ValueCoef:     0.5,
		EntropyCoef:   0.001,
		MaxGradNorm:   0.5,
		InitialLogStd: -1.5,
		RewardOffset:  1,
	}
}

// Validate rejects unusable hyperparameters.
func (c Config) Validate() error {
	if c.RolloutSteps < 1 || c.MiniBatch < 1 || c.Epochs < 1 {
		return fmt.Errorf("rl: invalid batch config %+v", c)
	}
	if c.Discount < 0 || c.Discount > 1 || c.GAELambda < 0 || c.GAELambda > 1 {
		return fmt.Errorf("rl: invalid discount %g / lambda %g", c.Discount, c.GAELambda)
	}
	if c.ClipEps <= 0 || c.LearningRate <= 0 {
		return fmt.Errorf("rl: invalid clip %g / lr %g", c.ClipEps, c.LearningRate)
	}
	return nil
}

// EpisodeStat summarises one finished episode for learning-curve logging.
type EpisodeStat struct {
	Episode     int     `json:"episode"`      // episode index, from 0
	Timestep    int     `json:"timestep"`     // total environment steps when the episode ended
	Steps       int     `json:"steps"`        // steps in this episode
	TotalReward float64 `json:"total_reward"` // sum of rewards (paper Figure 7's y-axis)
	MeanRatio   float64 `json:"mean_ratio"`   // mean U_agent/U_opt over reward-bearing steps
}

// Forwarder is the policy contract shared by the RL trainers. Forward
// must be safe for concurrent calls on distinct tapes: rollout workers and
// the parallel update both call it from several goroutines at once, while
// the parameters are not being modified.
type Forwarder interface {
	Forward(t *ad.Tape, obs *env.Observation) (mean, value *ad.Node, err error)
	Params() []*ad.Param
}

// Trainer runs PPO on a policy and environment.
type Trainer struct {
	cfg Config
	*core
}

var _ Algorithm = (*Trainer)(nil)

// NewTrainer builds a PPO trainer. The policy's parameters plus the shared
// log-std are optimised jointly with Adam; seed determines every random
// stream of the run (minibatch shuffles plus the per-worker action and
// episode-sampling streams).
func NewTrainer(pol Forwarder, cfg Config, seed int64) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newCore(AlgoPPO, pol, cfg.LearningRate, cfg.InitialLogStd, seed)
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, core: c}, nil
}

// Train runs PPO with a single rollout worker until the cumulative step
// counter reaches totalSteps. onEpisode, if not nil, is invoked after every
// finished episode (for learning curves). Cancellation is checked once per
// rollout: when ctx is done, Train returns its error before collecting the
// next batch, leaving the parameters at the last completed update.
func (tr *Trainer) Train(ctx context.Context, e env.Interface, totalSteps int, onEpisode func(EpisodeStat)) error {
	return tr.TrainWorkers(ctx, e, totalSteps, 1, Hooks{OnEpisode: onEpisode})
}

// TrainWorkers runs PPO with parallel rollout collection (see collector.go
// for the determinism contract).
func (tr *Trainer) TrainWorkers(ctx context.Context, e env.Interface, totalSteps, workers int, hooks Hooks) error {
	g := gaeParams{discount: tr.cfg.Discount, lambda: tr.cfg.GAELambda, rewardOffset: tr.cfg.RewardOffset}
	return tr.run(ctx, e, totalSteps, workers, tr.cfg.RolloutSteps, g, tr.update, hooks)
}

// MeanAction returns the deterministic (mean) action for evaluation.
func (tr *Trainer) MeanAction(obs *env.Observation) ([]float64, error) {
	return MeanAction(tr.pol, obs)
}

// MeanAction evaluates pol deterministically on obs.
func MeanAction(pol Forwarder, obs *env.Observation) ([]float64, error) {
	t := getTape()
	defer putTape(t)
	mean, _, err := pol.Forward(t, obs)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), mean.Value.Data...), nil
}

// computeGAE fills adv and ret in place.
func computeGAE(batch []*sample, lastValue, discount, lambda float64) {
	adv := 0.0
	nextValue := lastValue
	for i := len(batch) - 1; i >= 0; i-- {
		s := batch[i]
		nonTerminal := 1.0
		if s.done {
			nonTerminal = 0
			adv = 0
		}
		delta := s.reward + discount*nextValue*nonTerminal - s.value
		adv = delta + discount*lambda*nonTerminal*adv
		s.adv = adv
		s.ret = adv + s.value
		nextValue = s.value
	}
}

// normalizeAdvantages returns the rollout's advantage mean and standard
// deviation (plus epsilon), shared by the PPO and A2C updates.
func normalizeAdvantages(batch []*sample) (mean, std float64) {
	for _, s := range batch {
		mean += s.adv
	}
	mean /= float64(len(batch))
	for _, s := range batch {
		d := s.adv - mean
		std += d * d
	}
	return mean, math.Sqrt(std/float64(len(batch))) + 1e-8
}

// update runs the clipped-surrogate optimisation epochs over the rollout.
func (tr *Trainer) update(batch []*sample) error {
	meanAdv, stdAdv := normalizeAdvantages(batch)
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	w := lossWeights{valueCoef: tr.cfg.ValueCoef, entropyCoef: tr.cfg.EntropyCoef, maxGradNorm: tr.cfg.MaxGradNorm}
	mb := make([]*sample, 0, tr.cfg.MiniBatch)
	for epoch := 0; epoch < tr.cfg.Epochs; epoch++ {
		tr.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += tr.cfg.MiniBatch {
			end := min(start+tr.cfg.MiniBatch, len(idx))
			mb = mb[:0]
			for _, i := range idx[start:end] {
				mb = append(mb, batch[i])
			}
			if err := tr.optimise(mb, meanAdv, stdAdv, w, tr.clippedSurrogate); err != nil {
				return err
			}
		}
	}
	return nil
}

// clippedSurrogate is PPO's per-sample policy loss,
// −min(r·A, clip(r, 1−ε, 1+ε)·A) with probability ratio r = π(a|s)/π_old(a|s).
func (tr *Trainer) clippedSurrogate(t *ad.Tape, s *sample, logp *ad.Node, adv float64) *ad.Node {
	ratio := t.Exp(t.AddScalar(logp, -s.logp))
	surr1 := t.Scale(ratio, adv)
	surr2 := t.Scale(t.ClampConst(ratio, 1-tr.cfg.ClipEps, 1+tr.cfg.ClipEps), adv)
	return t.Scale(t.Min(surr1, surr2), -1)
}

// Evaluate runs the policy deterministically for episodes full episodes on
// e and returns the mean per-step ratio U_agent/U_opt (lower is better; 1.0
// is LP-optimal). In iterative mode only reward-bearing steps count.
// Cancellation is checked at every episode boundary.
func Evaluate(ctx context.Context, pol Forwarder, e env.Interface, episodes int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if episodes < 1 {
		return 0, fmt.Errorf("rl: evaluate needs >= 1 episode")
	}
	var sum float64
	var count int
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		obs, err := e.Reset()
		if err != nil {
			return 0, err
		}
		for {
			action, err := MeanAction(pol, obs)
			if err != nil {
				return 0, err
			}
			next, reward, done, err := e.Step(action)
			if err != nil {
				return 0, err
			}
			if reward != 0 {
				sum += -reward
				count++
			}
			if done {
				break
			}
			obs = next
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("rl: evaluation produced no reward-bearing steps")
	}
	return sum / float64(count), nil
}
