// Package traffic generates the synthetic demand workloads of the paper's
// evaluation (§VIII-B): bimodal demand matrices simulating occasional
// elephant flows, composed into cyclical sequences that exhibit the temporal
// regularity the data-driven routing approach exploits. A gravity model and
// sparsified variants are provided for additional workloads.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// DemandMatrix holds an N×N traffic demand matrix; entry (s,t) is the
// traffic demand from source s to destination t. The diagonal is zero.
type DemandMatrix struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewDemandMatrix returns a zero N×N demand matrix.
func NewDemandMatrix(n int) *DemandMatrix {
	return &DemandMatrix{N: n, Data: make([]float64, n*n)}
}

// At returns the demand from s to t.
func (d *DemandMatrix) At(s, t int) float64 { return d.Data[s*d.N+t] }

// Set assigns the demand from s to t.
func (d *DemandMatrix) Set(s, t int, v float64) { d.Data[s*d.N+t] = v }

// Clone returns a deep copy.
func (d *DemandMatrix) Clone() *DemandMatrix {
	c := NewDemandMatrix(d.N)
	copy(c.Data, d.Data)
	return c
}

// Scale multiplies every demand by f in place and returns the matrix.
func (d *DemandMatrix) Scale(f float64) *DemandMatrix {
	for i := range d.Data {
		d.Data[i] *= f
	}
	return d
}

// Total returns the sum of all demands.
func (d *DemandMatrix) Total() float64 {
	var s float64
	for _, v := range d.Data {
		s += v
	}
	return s
}

// OutSum returns the total demand originating at node v.
func (d *DemandMatrix) OutSum(v int) float64 {
	var s float64
	for t := 0; t < d.N; t++ {
		s += d.Data[v*d.N+t]
	}
	return s
}

// InSum returns the total demand destined for node v.
func (d *DemandMatrix) InSum(v int) float64 {
	var s float64
	for src := 0; src < d.N; src++ {
		s += d.Data[src*d.N+v]
	}
	return s
}

// InSums fills dst (len N) with the total demand destined for every node:
// dst[v] = InSum(v). One row-major pass over the matrix replaces N
// column-stride scans, so per-request serving code can precompute all sink
// in-sums at once. dst is overwritten, not accumulated into.
func (d *DemandMatrix) InSums(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for s := 0; s < d.N; s++ {
		row := d.Data[s*d.N : (s+1)*d.N]
		for t, v := range row {
			dst[t] += v
		}
	}
}

// Equal reports whether two demand matrices have the same size and entries.
func (d *DemandMatrix) Equal(o *DemandMatrix) bool {
	if d == o {
		return true
	}
	if d == nil || o == nil || d.N != o.N || len(d.Data) != len(o.Data) {
		return false
	}
	for i, v := range d.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// WithoutNode returns an (N-1)×(N-1) copy with node v's row and column
// deleted, renumbering nodes above v down by one — the demand-side mirror
// of graph.RemoveNode, so histories stay index-aligned after a node-removal
// topology event. Traffic to and from the removed node is dropped.
func (d *DemandMatrix) WithoutNode(v int) (*DemandMatrix, error) {
	if v < 0 || v >= d.N {
		return nil, fmt.Errorf("traffic: node %d out of range [0,%d)", v, d.N)
	}
	if d.N < 2 {
		return nil, fmt.Errorf("traffic: cannot shrink a %d-node demand matrix", d.N)
	}
	out := NewDemandMatrix(d.N - 1)
	for s := 0; s < d.N; s++ {
		if s == v {
			continue
		}
		ns := s
		if s > v {
			ns--
		}
		for t := 0; t < d.N; t++ {
			if t == v {
				continue
			}
			nt := t
			if t > v {
				nt--
			}
			out.Set(ns, nt, d.At(s, t))
		}
	}
	return out, nil
}

// WithNode returns an (N+1)×(N+1) copy with a zero-demand node appended as
// the highest id — the demand-side mirror of graph.AddNode: a node that
// just joined the network has no observed demand history yet.
func (d *DemandMatrix) WithNode() *DemandMatrix {
	out := NewDemandMatrix(d.N + 1)
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			out.Set(s, t, d.At(s, t))
		}
	}
	return out
}

// MaxEntry returns the largest single demand.
func (d *DemandMatrix) MaxEntry() float64 {
	var m float64
	for _, v := range d.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Validate checks invariants: finite, non-negative entries, a zero
// diagonal, and a finite total. Every link load is bounded by the total, so
// a matrix that passes routes to finite loads; finite entries alone do not
// guarantee it (two entries of 1e308 overflow their sum).
func (d *DemandMatrix) Validate() error {
	if len(d.Data) != d.N*d.N {
		//gddr:allow hotpath error path
		return fmt.Errorf("traffic: demand matrix length %d != %d^2", len(d.Data), d.N)
	}
	var total float64
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			v := d.At(s, t)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				//gddr:allow hotpath error path
				return fmt.Errorf("traffic: non-finite demand %g at (%d,%d)", v, s, t)
			}
			if v < 0 {
				//gddr:allow hotpath error path
				return fmt.Errorf("traffic: negative demand %g at (%d,%d)", v, s, t)
			}
			if s == t && v != 0 {
				//gddr:allow hotpath error path
				return fmt.Errorf("traffic: non-zero diagonal %g at node %d", v, s)
			}
			total += v
		}
	}
	if math.IsInf(total, 0) {
		//gddr:allow hotpath error path
		return fmt.Errorf("traffic: non-finite demand total %g: the entries overflow when summed", total)
	}
	return nil
}

// BimodalParams configures the paper's bimodal demand generator:
// D_ij = p if s > ElephantProb-complement else q, with p ~ N(LowMean,
// LowStd), q ~ N(HighMean, HighStd), s ~ U(0,1). The paper's example values
// are LowMean 400, HighMean 800, both Std 100, elephant probability 0.2.
type BimodalParams struct {
	LowMean, LowStd   float64
	HighMean, HighStd float64
	ElephantProb      float64
}

// DefaultBimodal returns the paper's example parameters.
func DefaultBimodal() BimodalParams {
	return BimodalParams{
		LowMean: 400, LowStd: 100,
		HighMean: 800, HighStd: 100,
		ElephantProb: 0.2,
	}
}

// Bimodal draws one bimodal demand matrix. Negative Gaussian samples are
// clamped to zero so demands stay valid.
func Bimodal(n int, p BimodalParams, rng *rand.Rand) *DemandMatrix {
	d := NewDemandMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			var v float64
			if rng.Float64() < p.ElephantProb {
				v = rng.NormFloat64()*p.HighStd + p.HighMean
			} else {
				v = rng.NormFloat64()*p.LowStd + p.LowMean
			}
			if v < 0 {
				v = 0
			}
			d.Set(s, t, v)
		}
	}
	return d
}

// Gravity draws a gravity-model demand matrix: node masses m_i ~ Exp(1)
// scaled so the matrix total matches total; D_ij ∝ m_i·m_j.
func Gravity(n int, total float64, rng *rand.Rand) *DemandMatrix {
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = rng.ExpFloat64()
	}
	d := NewDemandMatrix(n)
	var raw float64
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			v := masses[s] * masses[t]
			d.Set(s, t, v)
			raw += v
		}
	}
	if raw > 0 {
		d.Scale(total / raw)
	}
	return d
}

// Sparsify zeroes each off-diagonal entry independently with probability
// 1-keepProb, modelling sparse traffic, and returns a new matrix.
func Sparsify(d *DemandMatrix, keepProb float64, rng *rand.Rand) *DemandMatrix {
	out := d.Clone()
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			if s == t {
				continue
			}
			if rng.Float64() >= keepProb {
				out.Set(s, t, 0)
			}
		}
	}
	return out
}

// CyclicalSequence builds the paper's cyclical sequence: q base matrices
// drawn from gen, repeated to the requested length (x_i = D_{i mod q}).
func CyclicalSequence(length, cycle int, gen func() *DemandMatrix) ([]*DemandMatrix, error) {
	if cycle <= 0 || length <= 0 {
		return nil, fmt.Errorf("traffic: invalid sequence dims length=%d cycle=%d", length, cycle)
	}
	base := make([]*DemandMatrix, cycle)
	for i := range base {
		base[i] = gen()
	}
	seq := make([]*DemandMatrix, length)
	for i := range seq {
		seq[i] = base[i%cycle]
	}
	return seq, nil
}

// BimodalCyclical is the paper's main workload: a cyclical sequence of
// bimodal demand matrices. It is deterministic given the rng state.
func BimodalCyclical(n, length, cycle int, p BimodalParams, rng *rand.Rand) ([]*DemandMatrix, error) {
	return CyclicalSequence(length, cycle, func() *DemandMatrix {
		return Bimodal(n, p, rng)
	})
}

// Sequences draws count independent cyclical bimodal sequences, as used for
// the paper's 7-train/3-test split.
func Sequences(count, n, length, cycle int, p BimodalParams, rng *rand.Rand) ([][]*DemandMatrix, error) {
	out := make([][]*DemandMatrix, count)
	for i := range out {
		seq, err := BimodalCyclical(n, length, cycle, p, rng)
		if err != nil {
			return nil, err
		}
		out[i] = seq
	}
	return out, nil
}

// DiurnalParams configures a day-cycle modulated workload: a base gravity
// demand scaled by a sinusoid with one peak per period, modelling the
// diurnal regularity the paper's premise relies on (§III: traffic patterns
// reoccur because people live by cyclic patterns).
type DiurnalParams struct {
	Period    int     // timesteps per simulated day
	PeakRatio float64 // peak-to-trough demand ratio (>1)
	BaseTotal float64 // total demand at the trough
}

// DefaultDiurnal returns a 24-step day with a 3x peak.
func DefaultDiurnal() DiurnalParams {
	return DiurnalParams{Period: 24, PeakRatio: 3, BaseTotal: 4000}
}

// DiurnalSequence generates length demand matrices following the diurnal
// pattern: one fixed gravity structure whose total is modulated over the
// period. The structure is drawn once so temporal regularity is exact.
func DiurnalSequence(n, length int, p DiurnalParams, rng *rand.Rand) ([]*DemandMatrix, error) {
	if p.Period < 2 || p.PeakRatio <= 1 || p.BaseTotal <= 0 {
		return nil, fmt.Errorf("traffic: invalid diurnal params %+v", p)
	}
	if length <= 0 {
		return nil, fmt.Errorf("traffic: invalid diurnal length %d", length)
	}
	base := Gravity(n, 1, rng)
	seq := make([]*DemandMatrix, length)
	for i := range seq {
		phase := 2 * math.Pi * float64(i%p.Period) / float64(p.Period)
		// Scale oscillates in [BaseTotal, BaseTotal*PeakRatio].
		scale := p.BaseTotal * (1 + (p.PeakRatio-1)*(1-math.Cos(phase))/2)
		seq[i] = base.Clone().Scale(scale)
	}
	return seq, nil
}
