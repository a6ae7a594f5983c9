package rl

import (
	"fmt"
	"math/rand"
	"testing"

	"gddr/internal/env"
	"gddr/internal/policy"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// abileneTraining builds the training hot path at the benchmark's train
// workload shapes: an Abilene environment over a cyclical bimodal sequence
// with memory 3 and a prewarmed LP cache, and a GNN policy with hidden
// size 16 and 2 message-passing steps.
func abileneTraining(b *testing.B) (*env.Env, policy.Policy) {
	b.Helper()
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(1))
	seq, err := traffic.BimodalCyclical(g.NumNodes(), 12, 3, traffic.DefaultBimodal(), rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := env.DefaultConfig()
	cfg.Memory = 3
	cache := env.NewOptimalCache()
	base, err := env.New(g, seq, cfg, cache)
	if err != nil {
		b.Fatal(err)
	}
	// Prewarm the LP cache so collection measures env stepping + policy
	// forward passes, not one-off LP solves.
	for t := cfg.Memory; t < len(seq); t++ {
		if _, err := cache.Get(g, seq[t]); err != nil {
			b.Fatal(err)
		}
	}
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: 3, Hidden: 16, Steps: 2}, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	return base, pol
}

// BenchmarkTrainRollout measures rollout-collection throughput on Abilene
// with a GNN policy, the training hot path. One op is a 256-step rollout.
// CI gates the 4-worker over 1-worker speedup at >= 2x (the policy forward
// pass dominates and parallelises across worker clones; on a single-core
// machine the ratio degenerates to ~1x, which is why the gate lives in CI
// rather than in a test assertion).
func BenchmarkTrainRollout(b *testing.B) {
	base, pol := abileneTraining(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			menv, err := env.NewMulti([]*env.Env{base}, 1)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := NewTrainer(pol, DefaultConfig(), 1)
			if err != nil {
				b.Fatal(err)
			}
			col, err := newCollector(menv, workers, 1)
			if err != nil {
				b.Fatal(err)
			}
			gae := gaeParams{discount: 0, lambda: 0.95, rewardOffset: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := col.collect(256, tr.sample, tr.value, gae, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainUpdate measures the PPO update, the layer that dominates
// training wall-clock. One op consumes one 256-sample rollout with the
// default config: 4 epochs of 32-sample minibatches, each a parallel
// forward/backward pass and an Adam step. Run it at -cpu 1,2: CI gates the
// cpu=1 over cpu=2 ns/op ratio at >= 1.3x, since the per-sample passes
// spread over GOMAXPROCS goroutines.
func BenchmarkTrainUpdate(b *testing.B) {
	base, pol := abileneTraining(b)
	menv, err := env.NewMulti([]*env.Env{base}, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	tr, err := NewTrainer(pol, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	col, err := newCollector(menv, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ro, err := col.collect(cfg.RolloutSteps, tr.sample, tr.value, gaeParams{discount: cfg.Discount, lambda: cfg.GAELambda, rewardOffset: cfg.RewardOffset}, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.update(ro.samples); err != nil {
			b.Fatal(err)
		}
	}
}
