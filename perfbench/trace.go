package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/rl"
)

// tracedPolicy decorates a policy (rl.Forwarder) with a timing span around
// every Forward call. Spans are kept until the trainer's next update
// boundary, where splitUpdate attributes them to collection or update.
type tracedPolicy struct {
	rl.Forwarder

	mu    sync.Mutex
	spans []span // since the last update boundary

	calls     int64
	totalNS   int64
	updateNS  int64 // forward time inside gradient updates
	collectNS int64
}

type span struct{ start, dur int64 } // unix ns

func (p *tracedPolicy) Forward(t *ad.Tape, obs *env.Observation) (mean, value *ad.Node, err error) {
	start := time.Now()
	mean, value, err = p.Forwarder.Forward(t, obs)
	d := time.Since(start)
	p.mu.Lock()
	p.spans = append(p.spans, span{start.UnixNano(), int64(d)})
	p.mu.Unlock()
	return mean, value, err
}

// splitUpdate closes one training iteration: spans that started within the
// update's wall-clock window (ending now, lasting updateSeconds) are update
// forwards; the rest ran during rollout collection.
func (p *tracedPolicy) splitUpdate(updateSeconds float64) {
	cut := time.Now().UnixNano() - int64(updateSeconds*1e9)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.spans {
		if s.start >= cut {
			p.updateNS += s.dur
		} else {
			p.collectNS += s.dur
		}
		p.calls++
		p.totalNS += s.dur
	}
	p.spans = p.spans[:0]
}

// flopPerForward counts the multiply-add flops of one forward pass of an
// encode-process-decode GNN on a graph with the given node and edge counts,
// from its weight shapes: a W of in×out applied to R rows costs 2·R·in·out,
// where R is the edge, node or global (1) row count its name names, and the
// core block's weights run once per message-passing step.
func flopPerForward(params []*ad.Param, nodes, edges, steps int) float64 {
	var flop float64
	for _, p := range params {
		if !strings.HasSuffix(p.Name, ".W") {
			continue
		}
		rows := 1
		switch {
		case strings.Contains(p.Name, ".edge"):
			rows = edges
		case strings.Contains(p.Name, ".node"):
			rows = nodes
		}
		times := 1
		if strings.Contains(p.Name, ".core.") {
			times = steps
		}
		flop += 2 * float64(rows*times) * float64(p.Value.Rows*p.Value.Cols)
	}
	return flop
}

// tracedEnv decorates a training environment with a timing span around
// every Step; Clone returns a decorated clone sharing the counters, so the
// rollout workers' clones are traced too.
type tracedEnv struct {
	env.TrainEnv
	steps  *atomic.Int64
	stepNS *atomic.Int64
}

func newTracedEnv(e env.TrainEnv) *tracedEnv {
	return &tracedEnv{TrainEnv: e, steps: new(atomic.Int64), stepNS: new(atomic.Int64)}
}

func (e *tracedEnv) Step(action []float64) (*env.Observation, float64, bool, error) {
	start := time.Now()
	obs, r, done, err := e.TrainEnv.Step(action)
	e.stepNS.Add(int64(time.Since(start)))
	e.steps.Add(1)
	return obs, r, done, err
}

func (e *tracedEnv) Clone() env.TrainEnv {
	return &tracedEnv{TrainEnv: e.TrainEnv.Clone(), steps: e.steps, stepNS: e.stepNS}
}
