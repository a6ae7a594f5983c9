package ad

import (
	"math"
	"math/rand"
	"testing"

	"gddr/internal/mat"
)

// interleavedBackward is the single reverse sweep that adds each Use node's
// gradient into its Param.Grad as the sweep reaches it — the reference
// Backward must reproduce bit for bit now that it is Propagate followed by
// FlushParamGrads.
func interleavedBackward(t *Tape, loss *Node) {
	loss.Grad.Data[0] = 1
	for i := t.used - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.op == opParam {
			mat.AddInPlace(n.param.Grad, n.Grad)
			continue
		}
		n.backstep()
	}
}

// twiceUsedGraph records a two-layer tanh network that uses w twice (once
// per layer) and b in both layers, with a non-trivial loss.
func twiceUsedGraph(t *Tape, w, b *Param, x *mat.Matrix) *Node {
	h := t.Tanh(t.AddRowBroadcast(t.MatMul(t.Constant(x), t.Use(w)), t.Use(b)))
	h = t.Tanh(t.AddRowBroadcast(t.MatMul(h, t.Use(w)), t.Use(b)))
	return t.SumAll(t.Square(h))
}

func cloneParam(p *Param) *Param {
	c := NewParam(p.Name, p.Value.Clone())
	copy(c.Grad.Data, p.Grad.Data)
	return c
}

func bitEqual(t *testing.T, what string, got, want *mat.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBackwardMatchesInterleavedSweep: on a graph that uses one Param
// twice, Backward (Propagate, then FlushParamGrads) and the interleaved
// single sweep leave bit-identical parameter gradients, including on top of
// gradients already accumulated.
func TestBackwardMatchesInterleavedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := randParam("w", 4, 4, rng)
	b := randParam("b", 1, 4, rng)
	x := mat.RandNormal(5, 4, 1, rng)
	for i := range w.Grad.Data {
		w.Grad.Data[i] = rng.NormFloat64()
	}
	w2, b2 := cloneParam(w), cloneParam(b)

	tape := NewTape()
	if err := tape.Backward(twiceUsedGraph(tape, w, b, x)); err != nil {
		t.Fatal(err)
	}
	ref := NewTape()
	interleavedBackward(ref, twiceUsedGraph(ref, w2, b2, x))
	bitEqual(t, "w.Grad", w.Grad, w2.Grad)
	bitEqual(t, "b.Grad", b.Grad, b2.Grad)
}

// TestPropagateLeavesParamGradUntouched: Propagate computes node
// gradients, including the Use nodes', but writes no Param.Grad; the
// following FlushParamGrads does.
func TestPropagateLeavesParamGradUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := randParam("w", 4, 4, rng)
	b := randParam("b", 1, 4, rng)
	x := mat.RandNormal(5, 4, 1, rng)
	for i := range w.Grad.Data {
		w.Grad.Data[i] = float64(i) + 0.5
	}
	before := w.Grad.Clone()

	tape := NewTape()
	loss := twiceUsedGraph(tape, w, b, x)
	loss.Grad.Data[0] = 1
	tape.Propagate()
	bitEqual(t, "w.Grad after Propagate", w.Grad, before)
	if mat.Sum(b.Grad) != 0 {
		t.Fatalf("b.Grad written by Propagate: %v", b.Grad.Data)
	}
	var useGrad float64
	for _, n := range tape.nodes[:tape.used] {
		if n.op == opParam {
			useGrad += math.Abs(mat.Sum(n.Grad))
		}
	}
	if useGrad == 0 {
		t.Fatal("Propagate left every Use node's gradient zero")
	}
	tape.FlushParamGrads()
	if mat.Sum(b.Grad) == 0 {
		t.Fatal("FlushParamGrads did not accumulate into b.Grad")
	}
}

// TestSeededPropagateMatchesWeightedSum: seeding a non-scalar output's
// gradient with s and propagating gives the parameter gradients Backward
// computes for SumAll(out ⊙ s).
func TestSeededPropagateMatchesWeightedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randParam("w", 4, 3, rng)
	b := randParam("b", 1, 3, rng)
	x := mat.RandNormal(6, 4, 1, rng)
	seed := mat.RandNormal(6, 3, 1, rng)
	w2, b2 := cloneParam(w), cloneParam(b)
	out := func(t *Tape, w, b *Param) *Node {
		return t.Sigmoid(t.AddRowBroadcast(t.MatMul(t.Constant(x), t.Use(w)), t.Use(b)))
	}

	ref := NewTape()
	if err := ref.Backward(ref.SumAll(ref.Mul(out(ref, w, b), ref.Constant(seed)))); err != nil {
		t.Fatal(err)
	}
	tape := NewTape()
	o := out(tape, w2, b2)
	copy(o.Grad.Data, seed.Data)
	tape.Propagate()
	tape.FlushParamGrads()
	bitEqual(t, "w.Grad", w2.Grad, w.Grad)
	bitEqual(t, "b.Grad", b2.Grad, b.Grad)
}
