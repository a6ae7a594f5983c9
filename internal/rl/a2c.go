package rl

import (
	"context"
	"fmt"

	"gddr/internal/ad"
	"gddr/internal/env"
)

// A2CConfig holds the hyperparameters of the synchronous advantage
// actor-critic trainer, the alternative learning algorithm the paper's
// further-work section suggests exploring instead of PPO (§IX-A). A2C takes
// exactly one on-policy gradient step per rollout (no surrogate clipping,
// no sample reuse), which makes it simpler but less sample-efficient.
type A2CConfig struct {
	RolloutSteps  int
	Discount      float64
	GAELambda     float64
	LearningRate  float64
	ValueCoef     float64
	EntropyCoef   float64
	MaxGradNorm   float64
	InitialLogStd float64
	RewardOffset  float64
}

// DefaultA2CConfig mirrors the PPO defaults where they overlap.
func DefaultA2CConfig() A2CConfig {
	return A2CConfig{
		RolloutSteps:  64,
		Discount:      0,
		GAELambda:     0.95,
		LearningRate:  5e-4,
		ValueCoef:     0.5,
		EntropyCoef:   0.001,
		MaxGradNorm:   0.5,
		InitialLogStd: -1.5,
		RewardOffset:  1,
	}
}

// Validate rejects unusable hyperparameters.
func (c A2CConfig) Validate() error {
	if c.RolloutSteps < 1 {
		return fmt.Errorf("rl: a2c rollout steps %d < 1", c.RolloutSteps)
	}
	if c.Discount < 0 || c.Discount > 1 || c.GAELambda < 0 || c.GAELambda > 1 {
		return fmt.Errorf("rl: a2c invalid discount %g / lambda %g", c.Discount, c.GAELambda)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("rl: a2c invalid learning rate %g", c.LearningRate)
	}
	return nil
}

// A2CTrainer runs synchronous advantage actor-critic on a policy. It shares
// the PPO trainer's collector and rollout buffer — parallel workers,
// per-worker streams, worker-order merge — and differs only in the update
// rule: one gradient step over the whole rollout.
type A2CTrainer struct {
	cfg A2CConfig
	*core
}

var _ Algorithm = (*A2CTrainer)(nil)

// NewA2CTrainer builds an A2C trainer over the policy; seed determines
// every random stream of the run.
func NewA2CTrainer(pol Forwarder, cfg A2CConfig, seed int64) (*A2CTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newCore(AlgoA2C, pol, cfg.LearningRate, cfg.InitialLogStd, seed)
	if err != nil {
		return nil, err
	}
	return &A2CTrainer{cfg: cfg, core: c}, nil
}

// Train runs A2C with a single rollout worker, mirroring the PPO trainer's
// cancellation semantics.
func (tr *A2CTrainer) Train(ctx context.Context, e env.Interface, totalSteps int, onEpisode func(EpisodeStat)) error {
	return tr.TrainWorkers(ctx, e, totalSteps, 1, Hooks{OnEpisode: onEpisode})
}

// TrainWorkers runs A2C with parallel rollout collection.
func (tr *A2CTrainer) TrainWorkers(ctx context.Context, e env.Interface, totalSteps, workers int, hooks Hooks) error {
	g := gaeParams{discount: tr.cfg.Discount, lambda: tr.cfg.GAELambda, rewardOffset: tr.cfg.RewardOffset}
	return tr.run(ctx, e, totalSteps, workers, tr.cfg.RolloutSteps, g, tr.step, hooks)
}

// step applies one actor-critic gradient step over the whole rollout.
func (tr *A2CTrainer) step(batch []*sample) error {
	meanAdv, stdAdv := normalizeAdvantages(batch)
	w := lossWeights{valueCoef: tr.cfg.ValueCoef, entropyCoef: tr.cfg.EntropyCoef, maxGradNorm: tr.cfg.MaxGradNorm}
	return tr.optimise(batch, meanAdv, stdAdv, w, policyGradientLoss)
}

// policyGradientLoss is A2C's per-sample policy loss, −A·log π(a|s).
func policyGradientLoss(t *ad.Tape, _ *sample, logp *ad.Node, adv float64) *ad.Node {
	return t.Scale(logp, -adv)
}
