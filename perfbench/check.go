package main

import (
	"fmt"
	"math"

	"gddr"
)

// checkDecision verifies a routing decision independently of the program's
// own evaluation code: the splitting ratios at every forwarding node sum to
// 1 per destination, and propagating the submitted demand through those
// ratios reproduces the decision's Loads, Utilization and MaxUtilization.
func checkDecision(g *gddr.Graph, dm *gddr.DemandMatrix, d *gddr.Decision) error {
	n, ne := g.NumNodes(), g.NumEdges()
	if dm.N != n {
		return fmt.Errorf("demand is %d×%d on a %d-node graph", dm.N, dm.N, n)
	}
	if len(d.Loads) != ne || len(d.Utilization) != ne || len(d.Weights) != ne {
		return fmt.Errorf("decision has %d loads, %d utilizations, %d weights for %d edges",
			len(d.Loads), len(d.Utilization), len(d.Weights), ne)
	}
	loads := make([]float64, ne)
	inflow := make([]float64, n)
	order := make([]int, 0, n)
	indeg := make([]int, n)
	for t := 0; t < n; t++ {
		var in float64
		for s := 0; s < n; s++ {
			in += dm.At(s, t)
		}
		r, ok := d.Splits[t]
		if in == 0 {
			if ok {
				return fmt.Errorf("splits for sink %d, which has no demand", t)
			}
			continue
		}
		if !ok || len(r) != ne {
			return fmt.Errorf("sink %d: missing or mis-sized splits", t)
		}
		if err := checkSplits(g, t, r); err != nil {
			return err
		}
		// Kahn's order over the edges the destination DAG uses.
		clear(indeg)
		for ei := 0; ei < ne; ei++ {
			if r[ei] > 0 {
				indeg[g.Edge(ei).To]++
			}
		}
		order = order[:0]
		for v := 0; v < n; v++ {
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
		for i := 0; i < len(order); i++ {
			for _, ei := range g.OutEdges(order[i]) {
				if r[ei] <= 0 {
					continue
				}
				w := g.Edge(ei).To
				if indeg[w]--; indeg[w] == 0 {
					order = append(order, w)
				}
			}
		}
		if len(order) != n {
			return fmt.Errorf("sink %d: splitting ratios contain a cycle", t)
		}
		for v := 0; v < n; v++ {
			inflow[v] = dm.At(v, t)
		}
		for _, v := range order {
			if v == t {
				continue
			}
			for _, ei := range g.OutEdges(v) {
				if r[ei] > 0 {
					f := inflow[v] * r[ei]
					loads[ei] += f
					inflow[g.Edge(ei).To] += f
				}
			}
		}
	}
	maxU := 0.0
	for ei := 0; ei < ne; ei++ {
		if !near(loads[ei], d.Loads[ei]) {
			return fmt.Errorf("edge %d: recomputed load %g, decision says %g", ei, loads[ei], d.Loads[ei])
		}
		u := loads[ei] / g.Edge(ei).Capacity
		if !near(u, d.Utilization[ei]) {
			return fmt.Errorf("edge %d: recomputed utilization %g, decision says %g", ei, u, d.Utilization[ei])
		}
		maxU = math.Max(maxU, u)
	}
	if !near(maxU, d.MaxUtilization) {
		return fmt.Errorf("recomputed max utilization %g, decision says %g", maxU, d.MaxUtilization)
	}
	return nil
}

// checkSplits requires the ratios toward sink t to be finite, non-negative,
// zero on the sink's own out-edges, and to sum to 1 at every other node.
func checkSplits(g *gddr.Graph, t int, r []float64) error {
	for v := 0; v < g.NumNodes(); v++ {
		var sum float64
		for _, ei := range g.OutEdges(v) {
			if x := r[ei]; x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("sink %d: ratio %g on edge %d", t, x, ei)
			}
			sum += r[ei]
		}
		want := 1.0
		if v == t {
			want = 0
		}
		if math.Abs(sum-want) > 1e-9 {
			return fmt.Errorf("sink %d: ratios out of node %d sum to %g, want %g", t, v, sum, want)
		}
	}
	return nil
}

// near compares two recomputed quantities up to summation-order rounding.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// checkRatio requires a routing/optimum ratio to be at least 1: no routing
// can beat the LP optimum.
func checkRatio(name string, r float64) error {
	if !(r >= 1-1e-9) || math.IsInf(r, 0) {
		return fmt.Errorf("%s ratio %g is below the LP optimum", name, r)
	}
	return nil
}
