package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/nn"
	"gddr/internal/policy"
)

// singleTapeMinibatch is the PPO minibatch gradient as one shared tape
// records it: every sample's forward pass and loss tail in sequence, then
// one Backward. It is the reference the parallel gradient pass must match
// bit for bit; unlike the production pass it stops before clipping and the
// Adam step.
func singleTapeMinibatch(tr *Trainer, batch []*sample, idx []int, meanAdv, stdAdv float64) (pgMean, vMean float64, err error) {
	t := ad.NewTape()
	logStdNode := t.Use(tr.logStd)
	invStd := t.Exp(t.Scale(logStdNode, -1))
	var total *ad.Node
	var pgSum, vSum float64
	for _, i := range idx {
		s := batch[i]
		mean, value, err := tr.pol.Forward(t, s.obs)
		if err != nil {
			return 0, 0, fmt.Errorf("rl: minibatch forward: %w", err)
		}
		k := float64(len(s.action))
		actionNode := t.RowConstant(s.action)
		diff := t.Sub(actionNode, mean)
		z := t.MulScalar(diff, invStd)
		// log π(a|s) = -½Σz² - k·logσ - k/2·log2π
		logp := t.AddScalar(
			t.Add(t.Scale(t.SumAll(t.Square(z)), -0.5), t.Scale(logStdNode, -k)),
			-0.5*k*math.Log(2*math.Pi))
		ratio := t.Exp(t.AddScalar(logp, -s.logp))
		adv := (s.adv - meanAdv) / stdAdv
		surr1 := t.Scale(ratio, adv)
		surr2 := t.Scale(t.ClampConst(ratio, 1-tr.cfg.ClipEps, 1+tr.cfg.ClipEps), adv)
		pgLoss := t.Scale(t.Min(surr1, surr2), -1)
		vLoss := t.Square(t.AddScalar(value, -s.ret))
		pgSum += pgLoss.Value.Data[0]
		vSum += vLoss.Value.Data[0]
		// Gaussian entropy = k(logσ + ½log2πe); only logσ carries gradient.
		entropy := t.Scale(logStdNode, k)
		loss := t.Add(pgLoss, t.Scale(vLoss, tr.cfg.ValueCoef))
		loss = t.Add(loss, t.Scale(entropy, -tr.cfg.EntropyCoef))
		if total == nil {
			total = loss
		} else {
			total = t.Add(total, loss)
		}
	}
	total = t.Scale(total, 1/float64(len(idx)))
	if err := t.Backward(total); err != nil {
		return 0, 0, err
	}
	return pgSum / float64(len(idx)), vSum / float64(len(idx)), nil
}

// singleTapeStep is the A2C gradient over a whole rollout on one shared
// tape, the reference for the A2C side of the parallel pass.
func singleTapeStep(tr *A2CTrainer, batch []*sample) (pgMean, vMean float64, err error) {
	meanAdv, stdAdv := normalizeAdvantages(batch)
	t := ad.NewTape()
	logStdNode := t.Use(tr.logStd)
	invStd := t.Exp(t.Scale(logStdNode, -1))
	var total *ad.Node
	var pgSum, vSum float64
	for _, s := range batch {
		mean, value, err := tr.pol.Forward(t, s.obs)
		if err != nil {
			return 0, 0, fmt.Errorf("rl: a2c forward: %w", err)
		}
		k := float64(len(s.action))
		actionNode := t.RowConstant(s.action)
		diff := t.Sub(actionNode, mean)
		z := t.MulScalar(diff, invStd)
		logp := t.AddScalar(
			t.Add(t.Scale(t.SumAll(t.Square(z)), -0.5), t.Scale(logStdNode, -k)),
			-0.5*k*math.Log(2*math.Pi))
		adv := (s.adv - meanAdv) / stdAdv
		pgLoss := t.Scale(logp, -adv)
		vLoss := t.Square(t.AddScalar(value, -s.ret))
		pgSum += pgLoss.Value.Data[0]
		vSum += vLoss.Value.Data[0]
		entropy := t.Scale(logStdNode, k)
		loss := t.Add(pgLoss, t.Scale(vLoss, tr.cfg.ValueCoef))
		loss = t.Add(loss, t.Scale(entropy, -tr.cfg.EntropyCoef))
		if total == nil {
			total = loss
		} else {
			total = t.Add(total, loss)
		}
	}
	total = t.Scale(total, 1/float64(len(batch)))
	if err := t.Backward(total); err != nil {
		return 0, 0, err
	}
	return pgSum / float64(len(batch)), vSum / float64(len(batch)), nil
}

// oracleGNN is a GNN policy whose blocks are reused across two
// message-passing steps, so every parameter is used several times per
// forward pass and the order of its gradient sums matters.
func oracleGNN(t testing.TB) policy.Policy {
	t.Helper()
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: 2, Hidden: 8, Steps: 2}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// testCollector is a single rollout worker over trainEnv.
func testCollector(t *testing.T) *collector {
	t.Helper()
	col, err := newCollector(trainEnv(t, env.NewOptimalCache()), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// collectRollout gathers one rollout of the given length with the
// trainer's current policy.
func collectRollout(t *testing.T, c *core, col *collector, steps int) []*sample {
	t.Helper()
	ro, err := col.collect(steps, c.sample, c.value, gaeParams{discount: 0, lambda: 0.95, rewardOffset: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ro.samples
}

// gradsBitEqual fails unless every Param.Grad entry of got equals want's
// bitwise, and returns how many entries it compared and how many were
// non-zero.
func gradsBitEqual(t *testing.T, what string, got, want []*ad.Param) (entries, nonzero int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", what, len(got), len(want))
	}
	for i, p := range got {
		for j, g := range p.Grad.Data {
			w := want[i].Grad.Data[j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s.Grad[%d] = %v, single tape %v", what, p.Name, j, g, w)
			}
			entries++
			if g != 0 {
				nonzero++
			}
		}
	}
	return entries, nonzero
}

// TestUpdateMatchesSingleTape runs multi-epoch PPO and multi-step A2C
// updates twice from identical state — once through the parallel
// per-sample-tape gradient pass, once through the single shared tape — and
// requires every Param.Grad entry to be bit-equal before clipping and the
// Adam step, minibatch by minibatch. Run it at several -cpu values: the
// pass must not depend on GOMAXPROCS.
func TestUpdateMatchesSingleTape(t *testing.T) {
	t.Run("ppo", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MiniBatch = 8
		cfg.Epochs = 3
		par, err := NewTrainer(oracleGNN(t), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewTrainer(oracleGNN(t), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		// 44 samples: five full minibatches and a short one per epoch.
		batch := collectRollout(t, par.core, testCollector(t), 44)
		meanAdv, stdAdv := normalizeAdvantages(batch)
		w := lossWeights{valueCoef: cfg.ValueCoef, entropyCoef: cfg.EntropyCoef, maxGradNorm: cfg.MaxGradNorm}
		idx := make([]int, len(batch))
		for i := range idx {
			idx[i] = i
		}
		var entries, nonzero, minibatches int
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			par.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for start := 0; start < len(idx); start += cfg.MiniBatch {
				end := min(start+cfg.MiniBatch, len(idx))
				var mb []*sample
				for _, i := range idx[start:end] {
					mb = append(mb, batch[i])
				}
				pg, v, err := par.gradients(mb, meanAdv, stdAdv, w, par.clippedSurrogate)
				if err != nil {
					t.Fatal(err)
				}
				refPG, refV, err := singleTapeMinibatch(ref, batch, idx[start:end], meanAdv, stdAdv)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("epoch %d minibatch at %d", epoch, start)
				if pg != refPG || v != refV {
					t.Fatalf("%s: losses (%v, %v), single tape (%v, %v)", what, pg, v, refPG, refV)
				}
				e, nz := gradsBitEqual(t, what, par.Params(), ref.Params())
				entries, nonzero, minibatches = entries+e, nonzero+nz, minibatches+1
				par.applyGradients(cfg.MaxGradNorm)
				ref.applyGradients(cfg.MaxGradNorm)
			}
		}
		if nonzero == 0 {
			t.Fatal("every gradient entry was zero; the comparison proves nothing")
		}
		paramsEqual(t, nn.CaptureParams(par.Params()), nn.CaptureParams(ref.Params()))
		t.Logf("%d minibatches, %d gradient entries bit-equal (%d non-zero)", minibatches, entries, nonzero)
	})

	t.Run("a2c", func(t *testing.T) {
		cfg := DefaultA2CConfig()
		cfg.RolloutSteps = 24
		par, err := NewA2CTrainer(oracleGNN(t), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewA2CTrainer(oracleGNN(t), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		w := lossWeights{valueCoef: cfg.ValueCoef, entropyCoef: cfg.EntropyCoef, maxGradNorm: cfg.MaxGradNorm}
		col := testCollector(t)
		var nonzero int
		for step := 0; step < 3; step++ {
			batch := collectRollout(t, par.core, col, cfg.RolloutSteps)
			meanAdv, stdAdv := normalizeAdvantages(batch)
			pg, v, err := par.gradients(batch, meanAdv, stdAdv, w, policyGradientLoss)
			if err != nil {
				t.Fatal(err)
			}
			refPG, refV, err := singleTapeStep(ref, batch)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("step %d", step)
			if pg != refPG || v != refV {
				t.Fatalf("%s: losses (%v, %v), single tape (%v, %v)", what, pg, v, refPG, refV)
			}
			_, nz := gradsBitEqual(t, what, par.Params(), ref.Params())
			nonzero += nz
			par.applyGradients(cfg.MaxGradNorm)
			ref.applyGradients(cfg.MaxGradNorm)
		}
		if nonzero == 0 {
			t.Fatal("every gradient entry was zero; the comparison proves nothing")
		}
		paramsEqual(t, nn.CaptureParams(par.Params()), nn.CaptureParams(ref.Params()))
	})

	// End to end: whole training runs at GOMAXPROCS 1 and 4 end in equal
	// parameters.
	t.Run("gomaxprocs", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		p1, _ := runParallel(t, 6, 2, 64, 0, nil, nil)
		runtime.GOMAXPROCS(4)
		p4, _ := runParallel(t, 6, 2, 64, 0, nil, nil)
		paramsEqual(t, p1, p4)
	})
}

// TestUpdateReportsLowestForwardError checks that a forward failure is
// reported deterministically: with several failing samples, the error is
// the lowest-indexed one's, whatever order the workers ran them in.
func TestUpdateReportsLowestForwardError(t *testing.T) {
	pol := &failingPolicy{Policy: oracleGNN(t), fail: map[*env.Observation]int{}}
	tr, err := NewTrainer(pol, DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := collectRollout(t, tr.core, testCollector(t), 16)
	for _, i := range []int{5, 9, 13} {
		pol.fail[batch[i].obs] = i
	}
	var want string
	for _, s := range batch {
		if i, ok := pol.fail[s.obs]; ok {
			want = fmt.Sprintf("rl: update forward: sample %d failed", i)
			break
		}
	}
	w := lossWeights{valueCoef: 0.5}
	for rep := 0; rep < 5; rep++ {
		_, _, err := tr.gradients(batch, 0, 1, w, policyGradientLoss)
		if err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	}
}

// failingPolicy fails Forward on the observations in fail. The map is
// filled before the update and only read during it.
type failingPolicy struct {
	policy.Policy
	fail map[*env.Observation]int
}

func (p *failingPolicy) Forward(t *ad.Tape, obs *env.Observation) (*ad.Node, *ad.Node, error) {
	if i, ok := p.fail[obs]; ok {
		return nil, nil, fmt.Errorf("sample %d failed", i)
	}
	return p.Policy.Forward(t, obs)
}
