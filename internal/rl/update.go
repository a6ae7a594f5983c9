package rl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gddr/internal/ad"
	"gddr/internal/nn"
)

// The gradient pass shared by the PPO minibatch and the A2C step runs each
// sample's policy forward and backward on its own tape, in parallel, yet
// produces every Param.Grad bit-identically to a single tape that records
// the samples one after another — for any GOMAXPROCS. It works in four
// phases:
//
//  1. parallel: sample i's Forward runs on sample tape i;
//  2. serial: the Gaussian loss tail is built on one small tape exactly as
//     the single tape records it, with each sample's mean and value entering
//     as constant leaves; its Backward leaves dL/dmean and dL/dvalue on
//     those leaves and accumulates the log-std gradient;
//  3. parallel: each sample tape receives its leaf gradients by copy — on
//     the single tape the tail is the outputs' only consumer recorded later,
//     so the copied value is exactly what their gradients held there — and
//     runs ad.Tape.Propagate, which never writes Param.Grad;
//  4. serial: the sample tapes flush their parameter gradients from the last
//     sample down to the first, the order of the single tape's reverse sweep.
//
// Each floating-point sum therefore sees the same operands in the same
// order; only the tapes they are recorded on differ.

// policyLossFunc records one sample's policy loss on the loss tape, given
// the sample, its log-probability node and its normalised advantage.
type policyLossFunc func(t *ad.Tape, s *sample, logp *ad.Node, adv float64) *ad.Node

// lossWeights are the loss coefficients and the gradient-norm bound shared
// by the PPO and A2C updates.
type lossWeights struct {
	valueCoef, entropyCoef, maxGradNorm float64
}

// optimise takes one Adam step on the mean loss over samples and records
// the minibatch losses for Hooks.OnUpdateStat.
func (c *core) optimise(samples []*sample, meanAdv, stdAdv float64, w lossWeights, policyLoss policyLossFunc) error {
	pg, v, err := c.gradients(samples, meanAdv, stdAdv, w, policyLoss)
	if err != nil {
		return err
	}
	c.applyGradients(w.maxGradNorm)
	c.recordLosses(pg, v)
	return nil
}

// applyGradients clips the accumulated gradients to maxGradNorm (when
// positive), takes the Adam step (which zeroes them) and clamps the log-std.
func (c *core) applyGradients(maxGradNorm float64) {
	if maxGradNorm > 0 {
		nn.ClipGradNorm(c.Params(), maxGradNorm)
	}
	c.opt.Step()
	c.clampLogStd()
}

// gradients accumulates into every Param.Grad the gradient of the mean
// per-sample loss policyLoss + valueCoef·(value−ret)² − entropyCoef·k·logσ
// over samples, and returns the mean policy and value losses.
func (c *core) gradients(samples []*sample, meanAdv, stdAdv float64, w lossWeights, policyLoss policyLossFunc) (pgMean, vMean float64, err error) {
	n := len(samples)
	for len(c.tapes) < n {
		c.tapes = append(c.tapes, ad.NewTape())
	}
	tapes := c.tapes[:n]
	means := make([]*ad.Node, n)
	values := make([]*ad.Node, n)
	errs := make([]error, n)

	parallelFor(n, func(i int) {
		tapes[i].Reset()
		means[i], values[i], errs[i] = c.pol.Forward(tapes[i], samples[i].obs)
	})
	for _, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rl: update forward: %w", err)
		}
	}

	t := getTape()
	defer putTape(t)
	meanLeaves := make([]*ad.Node, n)
	valueLeaves := make([]*ad.Node, n)
	logStdNode := t.Use(c.logStd)
	invStd := t.Exp(t.Scale(logStdNode, -1))
	var total *ad.Node
	var pgSum, vSum float64
	for i, s := range samples {
		mean := t.Constant(means[i].Value)
		value := t.Constant(values[i].Value)
		meanLeaves[i], valueLeaves[i] = mean, value
		k := float64(len(s.action))
		actionNode := t.RowConstant(s.action)
		diff := t.Sub(actionNode, mean)
		z := t.MulScalar(diff, invStd)
		// log π(a|s) = -½Σz² - k·logσ - k/2·log2π
		logp := t.AddScalar(
			t.Add(t.Scale(t.SumAll(t.Square(z)), -0.5), t.Scale(logStdNode, -k)),
			-0.5*k*math.Log(2*math.Pi))
		pgLoss := policyLoss(t, s, logp, (s.adv-meanAdv)/stdAdv)
		vLoss := t.Square(t.AddScalar(value, -s.ret))
		pgSum += pgLoss.Value.Data[0]
		vSum += vLoss.Value.Data[0]
		// Gaussian entropy = k(logσ + ½log2πe); only logσ carries gradient.
		entropy := t.Scale(logStdNode, k)
		loss := t.Add(pgLoss, t.Scale(vLoss, w.valueCoef))
		loss = t.Add(loss, t.Scale(entropy, -w.entropyCoef))
		if total == nil {
			total = loss
		} else {
			total = t.Add(total, loss)
		}
	}
	total = t.Scale(total, 1/float64(n))
	if err := t.Backward(total); err != nil {
		return 0, 0, err
	}

	parallelFor(n, func(i int) {
		copy(means[i].Grad.Data, meanLeaves[i].Grad.Data)
		copy(values[i].Grad.Data, valueLeaves[i].Grad.Data)
		tapes[i].Propagate()
	})
	for i := n - 1; i >= 0; i-- {
		tapes[i].FlushParamGrads()
	}
	return pgSum / float64(n), vSum / float64(n), nil
}

// parallelFor calls f(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines that claim indices from a shared counter, returning once all
// calls have finished. f must be safe to call concurrently for distinct i.
func parallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
