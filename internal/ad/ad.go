// Package ad implements a reverse-mode automatic differentiation tape over
// dense matrices. It provides every operation the GDDR policies need: affine
// layers, activations, concatenation, row gathering, unsorted segment sums
// (the ρ pooling functions of the graph-network blocks), broadcasts,
// reductions, and the pointwise arithmetic used by the PPO losses. It is a
// from-scratch substitute for TensorFlow's gradient machinery (DESIGN.md
// substitution #2).
//
// The tape is arena-backed: nodes, value/gradient matrices, and the index
// slices recorded by gather/segment ops all come from pools owned by the
// tape, and Reset rewinds the pools without freeing them. A serving or
// training loop that calls Reset between forward-backward passes therefore
// reaches a steady state where recording and differentiating a graph of the
// same shape performs no heap allocation. The price is an ownership rule:
// every Node, Value and Grad handed out by a tape is valid only until that
// tape's next Reset — callers that retain results (PPO rollouts retain
// observations, MeanAction returns an action vector) must copy out before
// resetting.
package ad

import (
	"fmt"
	"math"

	"gddr/internal/mat"
)

// opcode identifies the operation that produced a node; Propagate dispatches
// on it instead of invoking per-node closures (closures force a heap
// allocation per recorded op, which is exactly what the arena avoids).
type opcode uint8

const (
	opConst opcode = iota
	opParam
	opMatMul
	opAdd
	opSub
	opMul
	opDiv
	opScale
	opAddScalar
	opAddRowBroadcast
	opBroadcastRow
	opReLU
	opTanh
	opSigmoid
	opExp
	opLog
	opSquare
	opSoftplus
	opClamp
	opMin
	opConcatCols
	opConcatRows
	opGatherRows
	opSegmentSum
	opSumRows
	opSumAll
	opMean
	opRowSums
	opReshape
	opMulScalar
	opAddScalarNode
	opGatherCols
)

// Node is a value in the computation graph with an accumulated gradient.
// Nodes are owned by their tape and recycled on Reset.
type Node struct {
	Value *mat.Matrix
	Grad  *mat.Matrix

	tape  *Tape
	op    opcode
	a, b  *Node   // unary/binary operands
	ins   []*Node // concat operands (arena-backed)
	idx   []int   // gather/segment indices (arena-backed)
	s, s2 float64 // scalar attributes (scale factor, clamp bounds, …)
	param *Param  // opParam only
}

// Tape records operations so that gradients can be propagated in reverse.
// All recording state lives in rewindable arenas; see Reset. A tape is not
// safe for concurrent use.
type Tape struct {
	nodes []*Node // node pool; nodes[:used] is the recorded tape, in order
	used  int

	mats    []*mat.Matrix // matrix pool for values and gradients
	matUsed int

	intSlab []int // backing storage for Node.idx slices
	intOff  int

	nodeSlab []*Node // backing storage for Node.ins slices
	nodeOff  int
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset rewinds the tape for reuse, keeping every arena at its high-water
// capacity. All nodes, values and gradients previously handed out by this
// tape are invalidated: their backing buffers will be overwritten by the
// next recording. Replaying an identical op sequence after Reset produces
// bit-identical values (the kernels' summation order depends only on
// shapes), which the checkpoint bit-identity tests rely on.
func (t *Tape) Reset() {
	t.used = 0
	t.matUsed = 0
	t.intOff = 0
	t.nodeOff = 0
}

// newNode pops a recycled node (or grows the pool) and records it.
func (t *Tape) newNode(op opcode, v *mat.Matrix) *Node {
	var n *Node
	if t.used < len(t.nodes) {
		n = t.nodes[t.used]
		*n = Node{}
	} else {
		n = new(Node)
		t.nodes = append(t.nodes, n)
	}
	t.used++
	n.Value = v
	n.Grad = t.allocZero(v.Rows, v.Cols)
	n.tape = t
	n.op = op
	return n
}

// alloc hands out a rows×cols matrix from the arena without clearing it;
// callers must fully overwrite Data. The matrix header is pooled too, so
// the same *mat.Matrix is re-handed-out after Reset.
func (t *Tape) alloc(rows, cols int) *mat.Matrix {
	need := rows * cols
	if t.matUsed < len(t.mats) {
		m := t.mats[t.matUsed]
		t.matUsed++
		if cap(m.Data) < need {
			m.Data = make([]float64, need)
		}
		m.Data = m.Data[:need]
		m.Rows, m.Cols = rows, cols
		return m
	}
	m := mat.New(rows, cols)
	t.mats = append(t.mats, m)
	t.matUsed++
	return m
}

// allocZero is alloc plus clearing — for gradients and accumulated sums.
func (t *Tape) allocZero(rows, cols int) *mat.Matrix {
	m := t.alloc(rows, cols)
	m.Zero()
	return m
}

// allocInts hands out an n-int slice from the slab. When the slab is
// exhausted a fresh, larger one replaces it; slices handed out earlier keep
// the old backing array (still referenced by their nodes), so the swap is
// invisible to them.
func (t *Tape) allocInts(n int) []int {
	if t.intOff+n > len(t.intSlab) {
		size := 2 * len(t.intSlab)
		if size < t.intOff+n+64 {
			size = t.intOff + n + 64
		}
		t.intSlab = make([]int, size)
		t.intOff = 0
	}
	s := t.intSlab[t.intOff : t.intOff+n : t.intOff+n]
	t.intOff += n
	return s
}

// allocNodes is allocInts for []*Node (concat operand lists).
func (t *Tape) allocNodes(n int) []*Node {
	if t.nodeOff+n > len(t.nodeSlab) {
		size := 2 * len(t.nodeSlab)
		if size < t.nodeOff+n+16 {
			size = t.nodeOff + n + 16
		}
		t.nodeSlab = make([]*Node, size)
		t.nodeOff = 0
	}
	s := t.nodeSlab[t.nodeOff : t.nodeOff+n : t.nodeOff+n]
	t.nodeOff += n
	return s
}

// Constant introduces a matrix that requires no gradient. The matrix is
// used directly (not copied); the caller must not mutate it while the tape
// is live.
func (t *Tape) Constant(v *mat.Matrix) *Node { return t.newNode(opConst, v) }

// ConstantScalar introduces a 1×1 constant.
func (t *Tape) ConstantScalar(v float64) *Node {
	m := t.alloc(1, 1)
	m.Data[0] = v
	return t.newNode(opConst, m)
}

// RowConstant introduces a 1×len(v) constant copying v into the arena, so
// hot loops can feed plain slices to the tape without building a matrix
// (the allocation-free replacement for Constant(mat.RowVector(v))).
func (t *Tape) RowConstant(v []float64) *Node {
	m := t.alloc(1, len(v))
	copy(m.Data, v)
	return t.newNode(opConst, m)
}

// Param is a trainable parameter: a value plus its persistent gradient
// accumulator, living outside any single tape.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// NewParam wraps a value matrix as a named parameter.
func NewParam(name string, v *mat.Matrix) *Param {
	return &Param{Name: name, Value: v, Grad: mat.New(v.Rows, v.Cols)}
}

// ZeroGrad clears the parameter gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Use introduces a parameter onto the tape; FlushParamGrads (run by
// Backward) accumulates the node's gradient into the parameter's
// persistent gradient.
func (t *Tape) Use(p *Param) *Node {
	n := t.newNode(opParam, p.Value)
	n.param = p
	return n
}

// Backward runs reverse-mode differentiation seeding d(loss)=1 and adds
// every parameter gradient into its Param.Grad. The loss node must be 1×1.
// It is Propagate followed by FlushParamGrads.
func (t *Tape) Backward(loss *Node) error {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		return fmt.Errorf("ad: backward needs a scalar loss, got %dx%d", loss.Value.Rows, loss.Value.Cols)
	}
	if loss.tape != t {
		return fmt.Errorf("ad: loss node belongs to a different tape")
	}
	loss.Grad.Data[0] = 1
	t.Propagate()
	t.FlushParamGrads()
	return nil
}

// Propagate runs the reverse sweep from whatever gradients the caller has
// already written into output nodes' Grad, leaving every node's gradient
// final. It reads parameter values but never writes Param.Grad (see
// FlushParamGrads), so tapes sharing parameters may propagate
// concurrently.
func (t *Tape) Propagate() {
	for i := t.used - 1; i >= 0; i-- {
		t.nodes[i].backstep()
	}
}

// FlushParamGrads adds each Use node's gradient into its Param.Grad,
// walking the tape in reverse recording order — the order in which a
// single reverse sweep would reach them. Use nodes have no operands, so
// Propagate followed by FlushParamGrads is bit-identical to a sweep that
// accumulates parameters as it goes; flushing several tapes one after the
// other reproduces the sums of one tape recording them in sequence.
func (t *Tape) FlushParamGrads() {
	for i := t.used - 1; i >= 0; i-- {
		if n := t.nodes[i]; n.op == opParam {
			mat.AddInPlace(n.param.Grad, n.Grad)
		}
	}
}

// backstep propagates n's gradient into its operands.
func (n *Node) backstep() {
	g := n.Grad
	switch n.op {
	case opConst, opParam: // leaves; FlushParamGrads handles opParam
	case opMatMul:
		mat.MatMulTransBAccum(n.a.Grad, g, n.b.Value)
		mat.MatMulTransAAccum(n.b.Grad, n.a.Value, g)
	case opAdd:
		mat.AddInPlace(n.a.Grad, g)
		mat.AddInPlace(n.b.Grad, g)
	case opSub:
		mat.AddInPlace(n.a.Grad, g)
		bg := n.b.Grad.Data
		for i := range bg {
			bg[i] -= g.Data[i]
		}
	case opMul:
		ag, bg := n.a.Grad.Data, n.b.Grad.Data
		av, bv := n.a.Value.Data, n.b.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] * bv[i]
			bg[i] += g.Data[i] * av[i]
		}
	case opDiv:
		ag, bg := n.a.Grad.Data, n.b.Grad.Data
		av, bv := n.a.Value.Data, n.b.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] / bv[i]
			bg[i] -= g.Data[i] * av[i] / (bv[i] * bv[i])
		}
	case opScale:
		ag := n.a.Grad.Data
		for i := range g.Data {
			ag[i] += n.s * g.Data[i]
		}
	case opAddScalar:
		mat.AddInPlace(n.a.Grad, g)
	case opAddRowBroadcast:
		mat.AddInPlace(n.a.Grad, g)
		bias := n.b.Grad.Data
		for i := 0; i < g.Rows; i++ {
			row := g.Row(i)
			for j, x := range row {
				bias[j] += x
			}
		}
	case opBroadcastRow:
		ag := n.a.Grad.Data
		for i := 0; i < g.Rows; i++ {
			row := g.Row(i)
			for j, x := range row {
				ag[j] += x
			}
		}
	case opReLU:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		for i := range g.Data {
			if av[i] > 0 {
				ag[i] += g.Data[i]
			}
		}
	case opTanh:
		ag, y := n.a.Grad.Data, n.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] * (1 - y[i]*y[i])
		}
	case opSigmoid:
		ag, y := n.a.Grad.Data, n.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] * y[i] * (1 - y[i])
		}
	case opExp:
		ag, y := n.a.Grad.Data, n.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] * y[i]
		}
	case opLog:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] / av[i]
		}
	case opSquare:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] * 2 * av[i]
		}
	case opSoftplus:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		for i := range g.Data {
			ag[i] += g.Data[i] / (1 + math.Exp(-av[i]))
		}
	case opClamp:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		for i := range g.Data {
			if av[i] > n.s && av[i] < n.s2 {
				ag[i] += g.Data[i]
			}
		}
	case opMin:
		ag, bg := n.a.Grad.Data, n.b.Grad.Data
		av, bv := n.a.Value.Data, n.b.Value.Data
		for i := range g.Data {
			if av[i] <= bv[i] {
				ag[i] += g.Data[i]
			} else {
				bg[i] += g.Data[i]
			}
		}
	case opConcatCols:
		off := 0
		for _, nd := range n.ins {
			for i := 0; i < nd.Grad.Rows; i++ {
				src := g.Row(i)[off : off+nd.Grad.Cols]
				dst := nd.Grad.Row(i)
				for j, x := range src {
					dst[j] += x
				}
			}
			off += nd.Grad.Cols
		}
	case opConcatRows:
		off := 0
		for _, nd := range n.ins {
			cnt := len(nd.Grad.Data)
			src := g.Data[off : off+cnt]
			for j, x := range src {
				nd.Grad.Data[j] += x
			}
			off += cnt
		}
	case opGatherRows:
		for i, r := range n.idx {
			src := g.Row(i)
			dst := n.a.Grad.Row(r)
			for j, x := range src {
				dst[j] += x
			}
		}
	case opSegmentSum:
		for i, s := range n.idx {
			src := g.Row(s)
			dst := n.a.Grad.Row(i)
			for j, x := range src {
				dst[j] += x
			}
		}
	case opSumRows:
		for i := 0; i < n.a.Grad.Rows; i++ {
			dst := n.a.Grad.Row(i)
			for j := range dst {
				dst[j] += g.Data[j]
			}
		}
	case opSumAll:
		gv := g.Data[0]
		ag := n.a.Grad.Data
		for i := range ag {
			ag[i] += gv
		}
	case opMean:
		gv := g.Data[0] / n.s
		ag := n.a.Grad.Data
		for i := range ag {
			ag[i] += gv
		}
	case opRowSums:
		for i := 0; i < n.a.Grad.Rows; i++ {
			gv := g.Data[i]
			dst := n.a.Grad.Row(i)
			for j := range dst {
				dst[j] += gv
			}
		}
	case opReshape:
		ag := n.a.Grad.Data
		for i := range ag {
			ag[i] += g.Data[i]
		}
	case opMulScalar:
		ag, av := n.a.Grad.Data, n.a.Value.Data
		var acc float64
		for i := range g.Data {
			ag[i] += g.Data[i] * n.s
			acc += g.Data[i] * av[i]
		}
		n.b.Grad.Data[0] += acc
	case opAddScalarNode:
		ag := n.a.Grad.Data
		var acc float64
		for i := range g.Data {
			ag[i] += g.Data[i]
			acc += g.Data[i]
		}
		n.b.Grad.Data[0] += acc
	case opGatherCols:
		for i := 0; i < g.Rows; i++ {
			src := g.Row(i)
			dst := n.a.Grad.Row(i)
			for j, c := range n.idx {
				dst[c] += src[j]
			}
		}
	default:
		panic(fmt.Sprintf("ad: unknown opcode %d", n.op))
	}
}

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, b.Value.Cols)
	mat.MatMulInto(v, a.Value, b.Value)
	n := t.newNode(opMatMul, v)
	n.a, n.b = a, b
	return n
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	mat.AddInto(v, a.Value, b.Value)
	n := t.newNode(opAdd, v)
	n.a, n.b = a, b
	return n
}

// Sub returns a−b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	mat.SubInto(v, a.Value, b.Value)
	n := t.newNode(opSub, v)
	n.a, n.b = a, b
	return n
}

// Mul returns the elementwise product a⊙b.
func (t *Tape) Mul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	mat.MulInto(v, a.Value, b.Value)
	n := t.newNode(opMul, v)
	n.a, n.b = a, b
	return n
}

// Div returns the elementwise quotient a/b.
func (t *Tape) Div(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("ad: div shape mismatch %dx%d vs %dx%d",
			a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i := range v.Data {
		v.Data[i] = a.Value.Data[i] / b.Value.Data[i]
	}
	n := t.newNode(opDiv, v)
	n.a, n.b = a, b
	return n
}

// Scale returns s·a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	mat.ScaleInto(v, a.Value, s)
	n := t.newNode(opScale, v)
	n.a, n.s = a, s
	return n
}

// AddScalar returns a + s elementwise for a constant s.
func (t *Tape) AddScalar(a *Node, s float64) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x + s
	}
	n := t.newNode(opAddScalar, v)
	n.a, n.s = a, s
	return n
}

// AddRowBroadcast returns a + bias, where bias is 1×cols broadcast over the
// rows of a (the affine-layer bias pattern).
func (t *Tape) AddRowBroadcast(a, bias *Node) *Node {
	if bias.Value.Rows != 1 || bias.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("ad: row broadcast shape mismatch %dx%d + %dx%d",
			a.Value.Rows, a.Value.Cols, bias.Value.Rows, bias.Value.Cols))
	}
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		row := a.Value.Row(i)
		out := v.Row(i)
		for j, x := range row {
			out[j] = x + bias.Value.Data[j]
		}
	}
	n := t.newNode(opAddRowBroadcast, v)
	n.a, n.b = a, bias
	return n
}

// BroadcastRow tiles a 1×cols node into rows copies (used to append the
// global attribute to every node/edge row in a GN block).
func (t *Tape) BroadcastRow(a *Node, rows int) *Node {
	if a.Value.Rows != 1 {
		panic(fmt.Sprintf("ad: broadcast-row needs a 1xN node, got %dx%d", a.Value.Rows, a.Value.Cols))
	}
	v := t.alloc(rows, a.Value.Cols)
	for i := 0; i < rows; i++ {
		copy(v.Row(i), a.Value.Data)
	}
	n := t.newNode(opBroadcastRow, v)
	n.a = a
	return n
}

// unary records op with value f(a) elementwise; the backward rule lives in
// backstep, keyed by op.
func (t *Tape) unary(op opcode, a *Node, f func(float64) float64) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = f(x)
	}
	n := t.newNode(op, v)
	n.a = a
	return n
}

// ReLU applies max(0,x) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	return t.unary(opReLU, a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node { return t.unary(opTanh, a, math.Tanh) }

// Sigmoid applies 1/(1+e^{-x}) elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	return t.unary(opSigmoid, a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// Exp applies e^x elementwise.
func (t *Tape) Exp(a *Node) *Node { return t.unary(opExp, a, math.Exp) }

// Log applies the natural logarithm elementwise.
func (t *Tape) Log(a *Node) *Node { return t.unary(opLog, a, math.Log) }

// Square applies x² elementwise.
func (t *Tape) Square(a *Node) *Node {
	return t.unary(opSquare, a, func(x float64) float64 { return x * x })
}

// Softplus applies log(1+e^x) elementwise (numerically stabilised).
func (t *Tape) Softplus(a *Node) *Node {
	return t.unary(opSoftplus, a, func(x float64) float64 {
		if x > 30 {
			return x
		}
		return math.Log1p(math.Exp(x))
	})
}

// ClampConst clamps values into [lo,hi]; gradients pass through only inside
// the interval (the PPO clip operator).
func (t *Tape) ClampConst(a *Node, lo, hi float64) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = math.Min(hi, math.Max(lo, x))
	}
	n := t.newNode(opClamp, v)
	n.a, n.s, n.s2 = a, lo, hi
	return n
}

// Min returns the elementwise minimum of a and b; gradient flows to the
// smaller argument (ties favour a).
func (t *Tape) Min(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i := range v.Data {
		v.Data[i] = math.Min(a.Value.Data[i], b.Value.Data[i])
	}
	n := t.newNode(opMin, v)
	n.a, n.b = a, b
	return n
}

// ConcatCols concatenates nodes horizontally.
func (t *Tape) ConcatCols(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		return t.newNode(opConcatCols, t.alloc(0, 0))
	}
	rows := nodes[0].Value.Rows
	cols := 0
	for _, nd := range nodes {
		if nd.Value.Rows != rows {
			panic(fmt.Sprintf("mat: concat-cols row mismatch %d vs %d", nd.Value.Rows, rows))
		}
		cols += nd.Value.Cols
	}
	v := t.alloc(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := v.Row(i)
		for _, nd := range nodes {
			copy(orow[off:off+nd.Value.Cols], nd.Value.Row(i))
			off += nd.Value.Cols
		}
	}
	n := t.newNode(opConcatCols, v)
	n.ins = t.allocNodes(len(nodes))
	copy(n.ins, nodes)
	return n
}

// ConcatRows concatenates nodes vertically.
func (t *Tape) ConcatRows(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		return t.newNode(opConcatRows, t.alloc(0, 0))
	}
	cols := nodes[0].Value.Cols
	rows := 0
	for _, nd := range nodes {
		if nd.Value.Cols != cols {
			panic(fmt.Sprintf("mat: concat-rows col mismatch %d vs %d", nd.Value.Cols, cols))
		}
		rows += nd.Value.Rows
	}
	v := t.alloc(rows, cols)
	off := 0
	for _, nd := range nodes {
		copy(v.Data[off:off+len(nd.Value.Data)], nd.Value.Data)
		off += len(nd.Value.Data)
	}
	n := t.newNode(opConcatRows, v)
	n.ins = t.allocNodes(len(nodes))
	copy(n.ins, nodes)
	return n
}

// GatherRows selects rows of a by index (duplicates allowed); the backward
// pass scatter-adds. idx is copied; the caller's slice is not retained.
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	cols := a.Value.Cols
	v := t.alloc(len(idx), cols)
	for i, r := range idx {
		copy(v.Row(i), a.Value.Row(r))
	}
	n := t.newNode(opGatherRows, v)
	n.a = a
	n.idx = t.allocInts(len(idx))
	copy(n.idx, idx)
	return n
}

// SegmentSum sums rows of a into numSegments buckets; the graph-network ρ
// pooling (tf.unsorted_segment_sum equivalent). segments is copied.
func (t *Tape) SegmentSum(a *Node, segments []int, numSegments int) *Node {
	if len(segments) != a.Value.Rows {
		panic(fmt.Sprintf("mat: segment-sum needs %d segment ids, got %d", a.Value.Rows, len(segments)))
	}
	v := t.allocZero(numSegments, a.Value.Cols)
	for i, s := range segments {
		if s < 0 || s >= numSegments {
			panic(fmt.Sprintf("mat: segment id %d out of range [0,%d)", s, numSegments))
		}
		orow := v.Row(s)
		arow := a.Value.Row(i)
		for j, x := range arow {
			orow[j] += x
		}
	}
	n := t.newNode(opSegmentSum, v)
	n.a = a
	n.idx = t.allocInts(len(segments))
	copy(n.idx, segments)
	return n
}

// SumRows returns the 1×cols column-sum of a.
func (t *Tape) SumRows(a *Node) *Node {
	v := t.allocZero(1, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		row := a.Value.Row(i)
		for j, x := range row {
			v.Data[j] += x
		}
	}
	n := t.newNode(opSumRows, v)
	n.a = a
	return n
}

// SumAll returns the 1×1 sum over all elements.
func (t *Tape) SumAll(a *Node) *Node {
	v := t.alloc(1, 1)
	v.Data[0] = mat.Sum(a.Value)
	n := t.newNode(opSumAll, v)
	n.a = a
	return n
}

// Mean returns the 1×1 mean over all elements.
func (t *Tape) Mean(a *Node) *Node {
	count := float64(len(a.Value.Data))
	v := t.alloc(1, 1)
	v.Data[0] = mat.Sum(a.Value) / count
	n := t.newNode(opMean, v)
	n.a, n.s = a, count
	return n
}

// RowSums returns the rows×1 per-row sums of a.
func (t *Tape) RowSums(a *Node) *Node {
	v := t.alloc(a.Value.Rows, 1)
	for i := 0; i < a.Value.Rows; i++ {
		var s float64
		for _, x := range a.Value.Row(i) {
			s += x
		}
		v.Data[i] = s
	}
	n := t.newNode(opRowSums, v)
	n.a = a
	return n
}

// Reshape reinterprets a as rows×cols (same element count, row-major order).
func (t *Tape) Reshape(a *Node, rows, cols int) *Node {
	if rows*cols != len(a.Value.Data) {
		panic(fmt.Sprintf("ad: reshape %dx%d incompatible with %d elements", rows, cols, len(a.Value.Data)))
	}
	v := t.alloc(rows, cols)
	copy(v.Data, a.Value.Data)
	n := t.newNode(opReshape, v)
	n.a = a
	return n
}

// MulScalar multiplies every element of a by the 1×1 node s.
func (t *Tape) MulScalar(a, s *Node) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: mul-scalar needs a 1x1 scalar, got %dx%d", s.Value.Rows, s.Value.Cols))
	}
	sv := s.Value.Data[0]
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	mat.ScaleInto(v, a.Value, sv)
	n := t.newNode(opMulScalar, v)
	n.a, n.b, n.s = a, s, sv
	return n
}

// AddScalarNode adds the 1×1 node s to every element of a.
func (t *Tape) AddScalarNode(a, s *Node) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: add-scalar needs a 1x1 scalar, got %dx%d", s.Value.Rows, s.Value.Cols))
	}
	sv := s.Value.Data[0]
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		v.Data[i] = x + sv
	}
	n := t.newNode(opAddScalarNode, v)
	n.a, n.b = a, s
	return n
}

// GatherCols selects columns of a by index. idx is copied.
func (t *Tape) GatherCols(a *Node, idx []int) *Node {
	v := t.alloc(a.Value.Rows, len(idx))
	for i := 0; i < a.Value.Rows; i++ {
		row := a.Value.Row(i)
		out := v.Row(i)
		for j, c := range idx {
			out[j] = row[c]
		}
	}
	n := t.newNode(opGatherCols, v)
	n.a = a
	n.idx = t.allocInts(len(idx))
	copy(n.idx, idx)
	return n
}
