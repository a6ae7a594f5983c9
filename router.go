package gddr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gddr/internal/env"
	"gddr/internal/metrics"
	"gddr/internal/policy"
	"gddr/internal/rl"
	"gddr/internal/routing"
	"gddr/internal/traffic"
)

// ErrClosed is the sentinel returned by Route (and every Engine operation)
// after Close: serving has stopped and no request will be accepted. Test
// with errors.Is.
var ErrClosed = errors.New("gddr: serving engine is closed")

// ErrRouterClosed is the former name of ErrClosed, kept as an alias so
// existing errors.Is checks keep working.
var ErrRouterClosed = ErrClosed

// Decision is the routing decision for one demand matrix: the learned edge
// weights, the softmin spread, the fully-specified splitting ratios they
// induce, and the link loads and utilisation of applying that routing to
// the requested demand. All fields are owned by the caller.
type Decision struct {
	// Weights holds one strictly positive weight per edge (graph edge
	// order), as emitted by the policy's action head.
	Weights []float64 `json:"weights"`
	// Gamma is the softmin spread used to derive the splitting ratios; the
	// iterative policy learns it per decision, the others use the
	// configured value.
	Gamma float64 `json:"gamma"`
	// Splits maps each destination node with demand to its per-edge
	// splitting ratios: Splits[sink][e] is the fraction of traffic
	// transiting edge e's source that is destined for sink and forwarded
	// over e (zero on edges dropped from the destination DAG).
	Splits map[int][]float64 `json:"splits"`
	// Loads is the per-edge traffic carried under this routing.
	Loads []float64 `json:"loads"`
	// Utilization is the per-edge load/capacity ratio.
	Utilization []float64 `json:"utilization"`
	// MaxUtilization is the maximum link utilisation, the paper's objective.
	MaxUtilization float64 `json:"max_utilization"`
	// Trace is the per-request timing breakdown, attached only when the
	// router was built with WithTracing.
	Trace *RouteTrace `json:"trace,omitempty"`
}

// RouteTrace is the opt-in (WithTracing) per-request timing breakdown: how
// long the request waited for a serving worker, what the batch it joined
// spent in each serving stage, and which fast-path caches answered. The
// observe/forward/strategy stages are shared by the whole batch (one
// observation and forward pass serve every member); queue-wait and evaluate
// are this request's own. A policy-cache hit zeroes observe and forward; a
// strategy-cache hit zeroes strategy — this is how the ~4µs cached and
// ~340µs uncached paths are individually attributable.
type RouteTrace struct {
	// BatchSize is the number of requests served by this request's batch.
	BatchSize int `json:"batch_size"`
	// QueueWaitNS is the time from Route submission to batch pickup.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// ObserveNS is the demand-history observation build (0 on a policy-cache
	// hit).
	ObserveNS int64 `json:"observe_ns"`
	// ForwardNS covers the policy forward pass(es) (0 on a policy-cache hit).
	ForwardNS int64 `json:"forward_ns"`
	// StrategyNS is the softmin routing-strategy build (0 on a strategy-cache
	// hit).
	StrategyNS int64 `json:"strategy_ns"`
	// EvaluateNS is this request's demand propagation and Decision assembly.
	EvaluateNS int64 `json:"evaluate_ns"`
	// PolicyCacheHit reports whether the batch reused the cached policy
	// output (no observation, no forward pass).
	PolicyCacheHit bool `json:"policy_cache_hit"`
	// StrategyCacheHit reports whether the batch reused the cached routing
	// strategy.
	StrategyCacheHit bool `json:"strategy_cache_hit"`
}

// RouterStats counts serving activity since the router started.
type RouterStats struct {
	// Requests is the number of demand matrices routed.
	Requests int64 `json:"requests"`
	// Batches is the number of request batches served; Requests/Batches is
	// the mean batch size.
	Batches int64 `json:"batches"`
	// ForwardPasses is the number of policy forward passes run. Concurrent
	// callers batched together share one pass (the iterative policy runs
	// |E| passes per batch), and batches answered from the policy-output
	// cache run none.
	ForwardPasses int64 `json:"forward_passes"`
	// PolicyCacheHits counts batches that reused the previous policy output
	// because the observed demand-history window was unchanged (steady
	// demand), skipping the observation build and every forward pass.
	PolicyCacheHits int64 `json:"policy_cache_hits"`
	// StrategyHits counts batches that reused the cached routing strategy —
	// the policy emitted the same (weights, gamma), so the per-sink softmin
	// splitting ratios were served from cache instead of being rebuilt.
	StrategyHits int64 `json:"strategy_hits"`
	// StrategyMisses counts batches that built a fresh routing strategy.
	StrategyMisses int64 `json:"strategy_misses"`
}

// Router wraps a trained Agent as a thread-safe inference engine for one
// frozen topology: the "GNN as deployable router" of the paper's
// motivation, and the single-graph fast path underneath Engine. It keeps a
// sliding window of the most recent demand matrices (the policy's
// observation history) and answers Route calls with fully-specified
// routing decisions. Concurrent callers are batched so that requests
// arriving while the policy is busy share a single forward pass.
//
// A Router never changes its graph: topology events are expressed by
// building a fresh Router on the mutated graph and retiring the old one,
// which is exactly what Engine.Apply does. Use an Engine when the topology
// or the model must change at runtime; use a bare Router when neither does
// and the indirection is unwanted.
//
// The agent must not be trained while the router is serving; training
// mutates the policy parameters the forward passes read.
type Router struct {
	agent       *Agent
	g           *Graph
	ecfg        env.Config
	base        []float64 // per-edge base weights of the action mapping
	maxBatch    int
	evalWorkers int
	batchWindow time.Duration
	noCache     bool
	zero        *DemandMatrix // cold-start history pad (all-zero demand)

	// hist is the sliding demand-history window every serving worker
	// observes and pushes into. An Engine carries it from a retiring Router
	// into its replacement (historySnapshot, setHistory).
	hist *demandHistory

	reqCh     chan *routeRequest
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// The serving fast-path caches. Both are keyed on values the policy's
	// deterministic MeanAction makes stable under steady demand: the
	// policy-output cache maps the observed history window to (weights,
	// gamma), skipping observation + forward passes when the window is
	// unchanged; the strategy cache maps (weights, gamma) to the per-sink
	// splitting ratios, skipping the softmin routing translation. Both die
	// with the Router, so Engine.Apply/SwapAgent/SwapCheckpoint — which
	// retire the Router wholesale — invalidate them by construction.
	cacheMu  sync.Mutex
	lastOut  *policyOutput     //gddr:guardedby cacheMu
	strategy *routing.Strategy //gddr:guardedby cacheMu

	observers sync.Pool // *env.Observer, one in flight per serving worker
	scratch   sync.Pool // *evalScratch, one in flight per evaluation

	requests        atomic.Int64
	batches         atomic.Int64
	forwardPasses   atomic.Int64
	policyCacheHits atomic.Int64
	strategyHits    atomic.Int64
	strategyMisses  atomic.Int64

	// registry/met are the observability surface: the counters above stay
	// the per-router Stats() source of truth (the Engine folds them across
	// snapshots), while met mirrors them into registry instruments — which a
	// shared registry keeps cumulative across Engine snapshot rebuilds — and
	// adds the latency/queue-wait/batch-size histograms. met is nil only
	// under the benchmark-only noMetrics config.
	registry *metrics.Registry
	met      *routerMetrics
	tracing  bool
}

// routerMetrics bundles the router's registry instruments. Names follow the
// gddr_<subsystem>_<name>_<unit> contract pinned in DESIGN.md.
type routerMetrics struct {
	requests        *metrics.Counter
	batches         *metrics.Counter
	forwardPasses   *metrics.Counter
	policyCacheHits *metrics.Counter
	strategyHits    *metrics.Counter
	strategyMisses  *metrics.Counter
	routeLatency    *metrics.Histogram
	queueWait       *metrics.Histogram
	batchSize       *metrics.Histogram
}

func newRouterMetrics(reg *metrics.Registry) *routerMetrics {
	return &routerMetrics{
		requests:        reg.Counter("gddr_router_requests_total", "Demand matrices routed."),
		batches:         reg.Counter("gddr_router_batches_total", "Request batches served; requests/batches is the mean batch size."),
		forwardPasses:   reg.Counter("gddr_router_forward_passes_total", "Policy forward passes run (cache hits run none)."),
		policyCacheHits: reg.Counter("gddr_router_policy_cache_hits_total", "Batches answered from the policy-output cache."),
		strategyHits:    reg.Counter("gddr_router_strategy_cache_hits_total", "Batches that reused the cached routing strategy."),
		strategyMisses:  reg.Counter("gddr_router_strategy_cache_misses_total", "Batches that built a fresh routing strategy."),
		routeLatency:    reg.Histogram("gddr_router_route_latency_seconds", "End-to-end Route latency (queue wait included).", metrics.LatencyBuckets()),
		queueWait:       reg.Histogram("gddr_router_queue_wait_seconds", "Time a request waited for a serving worker.", metrics.LatencyBuckets()),
		batchSize:       reg.Histogram("gddr_router_batch_size", "Requests sharing one forward pass.", metrics.LinearBuckets(1, 1, 16)),
	}
}

// policyOutput is one policy-output cache entry: the deterministic
// MeanAction result for one observed history window. window holds the
// matrices by pointer; entries are value-compared on lookup so a gateway
// decoding identical steady demand into fresh allocations still hits,
// with a pointer fast path that is sound because Route takes ownership of
// submitted matrices (they are immutable once in the history).
type policyOutput struct {
	window  []*DemandMatrix
	weights []float64
	gamma   float64
}

// evalScratch holds the per-request evaluation buffers: demand in-sums,
// propagation inflow, the sinks-with-demand list, and (parallel evaluation
// only) the per-sink load contributions.
type evalScratch struct {
	insums  []float64
	inflow  []float64
	sinks   []int
	contrib []float64
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		//gddr:allow hotpath scratch resize runs once per topology change, then the buffer is reused
		return make([]float64, n)
	}
	return buf[:n]
}

// growInt is grow for int scratch slices.
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		//gddr:allow hotpath scratch resize runs once per topology change, then the buffer is reused
		return make([]int, n)
	}
	return buf[:n]
}

// demandHistory is the sliding window of the most recently routed demand
// matrices (oldest first, len <= memory): the policy's observation state.
// Each Router owns one; its mutex serialises the Router's concurrent
// serving workers, which all observe and push into the same window.
type demandHistory struct {
	mu     sync.Mutex
	memory int
	// dms is preallocated to memory capacity once and then only resliced
	// or shifted in place, so the serving path never reallocates it.
	dms []*DemandMatrix //gddr:guardedby mu
}

func newDemandHistory(memory int) *demandHistory {
	if memory < 0 {
		memory = 0
	}
	return &demandHistory{memory: memory, dms: make([]*DemandMatrix, 0, memory)}
}

// observeAndPush atomically snapshots the observation window (cold-start
// slots padded with pad) and appends the batch's matrices, so batches
// served concurrently by different workers serialise into one coherent
// history: each batch observes everything pushed before it and
// nothing pushed after. The returned window is freshly allocated
// (HistoryWindow copies the pointer slice) and safe to retain.
func (h *demandHistory) observeAndPush(pad *DemandMatrix, batch []*routeRequest) []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	win := env.HistoryWindow(h.dms, h.memory, pad)
	for _, req := range batch {
		h.pushLocked(req.dm)
	}
	return win
}

// pushLocked appends one matrix to the window in place; callers hold h.mu.
// The buffer's capacity is pinned at memory by the constructor and set, so
// a full window shifts left instead of growing — steady-state pushes are
// allocation-free.
func (h *demandHistory) pushLocked(dm *DemandMatrix) {
	if h.memory <= 0 {
		return
	}
	if n := len(h.dms); n < h.memory {
		h.dms = h.dms[:n+1]
		h.dms[n] = dm
	} else {
		copy(h.dms, h.dms[1:])
		h.dms[h.memory-1] = dm
	}
}

// window returns the current observation window without pushing anything
// (construction-time probe).
func (h *demandHistory) window(pad *DemandMatrix) []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	return env.HistoryWindow(h.dms, h.memory, pad)
}

// snapshot copies the raw history (no padding, oldest first).
func (h *demandHistory) snapshot() []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*DemandMatrix(nil), h.dms...)
}

// set replaces the history, trimming to the memory window. The matrices are
// copied into the preallocated buffer (never aliased), preserving the
// capacity invariant pushLocked relies on.
func (h *demandHistory) set(dms []*DemandMatrix) {
	if len(dms) > h.memory {
		dms = dms[len(dms)-h.memory:]
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dms = append(h.dms[:0], dms...)
}

type routeRequest struct {
	ctx      context.Context
	dm       *DemandMatrix
	enqueued time.Time // set only when instrumented (met != nil or tracing)
	resp     chan routeResponse
}

type routeResponse struct {
	d   *Decision
	err error
}

// NewRouter builds a serving engine for agent on topology g. The agent may
// be freshly loaded (Save/Load round-trip) or just trained; a probe
// forward pass validates that the policy fits the topology, so an MLP
// agent bound to a different graph is rejected here rather than at the
// first Route call.
func NewRouter(agent *Agent, g *Graph, opts ...RouterOption) (*Router, error) {
	return newRouter(agent, g, resolveRouterConfig(opts))
}

// newRouter builds a router from a resolved config.
func newRouter(agent *Agent, g *Graph, cfg routerConfig) (*Router, error) {
	if agent == nil {
		return nil, fmt.Errorf("gddr: router needs an agent")
	}
	if g == nil {
		return nil, fmt.Errorf("gddr: router needs a topology")
	}
	if !g.StronglyConnected() {
		return nil, fmt.Errorf("gddr: router topology must be strongly connected")
	}
	ecfg := agent.envConfig()
	base := g.UnitWeights()
	if ecfg.CapacityAware {
		base = g.InverseCapacityWeights()
	}
	r := &Router{
		agent:       agent,
		g:           g,
		ecfg:        ecfg,
		base:        base,
		maxBatch:    cfg.maxBatch,
		evalWorkers: cfg.evalWorkers,
		batchWindow: cfg.batchWindow,
		noCache:     cfg.noCache,
		zero:        traffic.NewDemandMatrix(g.NumNodes()),
		reqCh:       make(chan *routeRequest), // unbuffered: senders block, enabling batching
		quit:        make(chan struct{}),
	}
	r.observers.New = func() any { return new(env.Observer) }
	r.scratch.New = func() any { return new(evalScratch) }
	r.tracing = cfg.tracing
	r.hist = newDemandHistory(ecfg.Memory)
	if !cfg.noMetrics {
		r.registry = cfg.metrics
		if r.registry == nil {
			r.registry = metrics.NewRegistry()
		}
		r.met = newRouterMetrics(r.registry)
	}
	for _, dm := range cfg.history {
		if dm == nil || dm.N != g.NumNodes() {
			return nil, fmt.Errorf("gddr: warm-history matrix does not match the %d-node topology", g.NumNodes())
		}
	}
	r.hist.set(cfg.history)
	// Probe: one decision on an empty demand matrix catches policies whose
	// shape is bound to a different topology before serving starts. decide
	// bypasses the caches and returns its forward-pass count to the caller,
	// so the probe leaves the caches cold and the serving counters honest
	// (the probe's passes are simply never added).
	if !cfg.skipProbe {
		if _, _, _, err := r.decide(r.hist.window(r.zero), nil); err != nil {
			return nil, fmt.Errorf("gddr: agent incompatible with topology: %w", err)
		}
	}
	r.wg.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go r.worker()
	}
	return r, nil
}

// Route computes the routing decision for dm. The request observes the
// demand history accumulated by previous calls (the paper's m-step demand
// memory); dm itself joins the history for subsequent decisions, so
// ownership of dm passes to the router: the caller must not modify it
// after Route returns (a mutated matrix would silently rewrite the demand
// history past decisions were supposed to have observed, and defeat the
// fast-path caches' change detection — submit a fresh or cloned matrix per
// tick instead). A matrix DemandMatrix.Validate rejects (negative or
// non-finite entries, non-zero diagonal) is refused before it can reach the
// history. Route is safe for concurrent use: requests that arrive while the
// policy is busy are batched onto one shared forward pass. Cancelling ctx
// abandons the request.
//
//gddr:hotpath
func (r *Router) Route(ctx context.Context, dm *DemandMatrix) (*Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if dm == nil {
		//gddr:allow hotpath nil-matrix validation error path
		return nil, fmt.Errorf("gddr: route needs a demand matrix")
	}
	if dm.N != r.g.NumNodes() {
		//gddr:allow hotpath size-mismatch validation error path
		return nil, fmt.Errorf("gddr: demand matrix size %d != %d topology nodes", dm.N, r.g.NumNodes())
	}
	if err := dm.Validate(); err != nil {
		return nil, err
	}
	// One request envelope (struct + response channel) per call is the
	// batching contract: the envelope crosses a channel to the serving
	// goroutine, so it cannot live on this stack or in a pool keyed to it.
	//gddr:allow hotpath per-request envelope crosses into the serving goroutine
	req := &routeRequest{ctx: ctx, dm: dm, resp: make(chan routeResponse, 1)}
	if r.met != nil || r.tracing {
		req.enqueued = time.Now()
	}
	select {
	case r.reqCh <- req:
	case <-r.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case resp := <-req.resp:
		return resp.d, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns serving counters since the router started.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Requests:        r.requests.Load(),
		Batches:         r.batches.Load(),
		ForwardPasses:   r.forwardPasses.Load(),
		PolicyCacheHits: r.policyCacheHits.Load(),
		StrategyHits:    r.strategyHits.Load(),
		StrategyMisses:  r.strategyMisses.Load(),
	}
}

// add accumulates o's counters into s.
func (s *RouterStats) add(o RouterStats) {
	s.Requests += o.Requests
	s.Batches += o.Batches
	s.ForwardPasses += o.ForwardPasses
	s.PolicyCacheHits += o.PolicyCacheHits
	s.StrategyHits += o.StrategyHits
	s.StrategyMisses += o.StrategyMisses
}

// Graph returns the frozen topology the router serves. The graph is shared,
// not copied; it must not be modified.
func (r *Router) Graph() *Graph { return r.g }

// Metrics returns the registry the router's instruments live in: the
// private per-router one by default, or the registry passed with
// WithMetricsRegistry. Expose it with metrics.Registry.WritePrometheus (the
// gddr-serve /metrics endpoint) or snapshot it with Snapshot/WriteJSON.
func (r *Router) Metrics() *metrics.Registry { return r.registry }

// Close stops the serving workers and waits for them to exit. Route calls
// not yet accepted by a worker return ErrClosed; a request already being
// served completes normally, so closing drains in-flight work. Close is
// idempotent and safe to call concurrently with Route.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.quit) })
	r.wg.Wait()
}

// historySnapshot copies the current demand history (oldest first), so the
// Engine can carry observations across a topology or model swap.
func (r *Router) historySnapshot() []*DemandMatrix {
	return r.hist.snapshot()
}

// setHistory replaces the demand history (oldest first), trimming to the
// memory window. The Engine uses it to carry the drained predecessor's
// final history into the replacement Router before publishing it; the
// matrices must already be sized for the router's topology.
func (r *Router) setHistory(hist []*DemandMatrix) {
	r.hist.set(hist)
}

func (r *Router) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.quit:
			return
		case req := <-r.reqCh:
			r.serve(r.gather(req))
		}
	}
}

// gather drains requests already blocked on the channel, up to the batch
// bound, so they share the forward pass of the request that woke us. The
// yield gives concurrent callers that are runnable but not yet parked on
// the channel a chance to enqueue — without it, a CPU-bound serving loop
// on few cores degenerates to singleton batches because waiting senders
// never get scheduled between polls. With a batch window configured, the
// worker then keeps the batch open up to that long, blocking for senders
// that are still on their way; Close cuts the wait short, and the batch
// gathered so far is still served (Close drains in-flight work).
func (r *Router) gather(first *routeRequest) []*routeRequest {
	batch := []*routeRequest{first}
	runtime.Gosched()
	for len(batch) < r.maxBatch {
		select {
		case req := <-r.reqCh:
			batch = append(batch, req)
			continue
		default:
		}
		break
	}
	if r.batchWindow <= 0 || len(batch) >= r.maxBatch {
		return batch
	}
	timer := time.NewTimer(r.batchWindow)
	defer timer.Stop()
	for len(batch) < r.maxBatch {
		select {
		case req := <-r.reqCh:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-r.quit:
			return batch
		}
	}
	return batch
}

// batchTrace collects the shared per-batch stage timings when tracing is
// enabled; nil otherwise, in which case the stages pay no timing cost.
type batchTrace struct {
	observeNS        int64
	forwardNS        int64
	strategyNS       int64
	policyCacheHit   bool
	strategyCacheHit bool
}

// serve answers one batch: one shared observation and forward pass, then a
// per-request routing evaluation.
//
//gddr:hotpath
func (r *Router) serve(batch []*routeRequest) {
	// Drop requests whose caller already gave up, compacting the survivors
	// into the front of the batch slice in place.
	nLive := 0
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			req.resp <- routeResponse{err: err}
			continue
		}
		batch[nLive] = req
		nLive++
	}
	live := batch[:nLive]
	if len(live) == 0 {
		return
	}
	r.batches.Add(1)
	r.requests.Add(int64(len(live)))
	var picked time.Time
	if r.met != nil || r.tracing {
		picked = time.Now()
	}
	if r.met != nil {
		r.met.batches.Inc()
		r.met.requests.Add(int64(len(live)))
		r.met.batchSize.Observe(float64(len(live)))
		for _, req := range live {
			r.met.queueWait.Observe(picked.Sub(req.enqueued).Seconds())
		}
	}

	// All requests of the batch observe the pre-batch history (matching the
	// training-time contract that a decision for time t sees demands up to
	// t-1), then join it for subsequent batches. A cold-start history is
	// padded with zero matrices — the "no traffic observed yet" statement —
	// never with a batch member's own demand, which would let the first
	// decisions observe the very demand they are routing.
	hist := r.hist.observeAndPush(r.zero, live)

	// The batch trace lives on this stack: its fields are copied into each
	// response's RouteTrace, never retained, so tracing adds no per-batch
	// heap allocation here.
	var btv batchTrace
	var bt *batchTrace
	if r.tracing {
		bt = &btv
	}
	weights, gamma, err := r.decideCached(hist, bt)
	if err != nil {
		for _, req := range live {
			req.resp <- routeResponse{err: err}
		}
		return
	}

	// The splitting ratios depend only on (weights, gamma, sink), so they
	// are shared across the batch — and, via the strategy cache, across
	// every batch for which the policy keeps emitting these weights; each
	// request pays only for propagating its own demand through them.
	strat, err := r.strategyFor(weights, gamma, bt)
	if err != nil {
		for _, req := range live {
			req.resp <- routeResponse{err: err}
		}
		return
	}
	for _, req := range live {
		var evalStart time.Time
		if bt != nil {
			evalStart = time.Now()
		}
		d, err := r.evaluate(req.dm, strat)
		if d != nil && bt != nil {
			//gddr:allow hotpath allocates only when request tracing is enabled
			d.Trace = &RouteTrace{
				BatchSize:        len(live),
				QueueWaitNS:      picked.Sub(req.enqueued).Nanoseconds(),
				ObserveNS:        bt.observeNS,
				ForwardNS:        bt.forwardNS,
				StrategyNS:       bt.strategyNS,
				EvaluateNS:       time.Since(evalStart).Nanoseconds(),
				PolicyCacheHit:   bt.policyCacheHit,
				StrategyCacheHit: bt.strategyCacheHit,
			}
		}
		if r.met != nil {
			r.met.routeLatency.Observe(time.Since(req.enqueued).Seconds())
		}
		req.resp <- routeResponse{d: d, err: err}
	}
}

// decideCached is decide behind the policy-output cache: if the observed
// history window is unchanged since the last batch (pointer-equal or, for
// identical matrices decoded afresh, value-equal), the deterministic
// MeanAction would recompute the same action, so the cached (weights,
// gamma) is returned without building an observation or running a forward
// pass. The returned slices are shared with the cache and must be treated
// as read-only — every consumer copies before handing them to callers.
func (r *Router) decideCached(hist []*DemandMatrix, bt *batchTrace) ([]float64, float64, error) {
	if !r.noCache {
		r.cacheMu.Lock()
		if c := r.lastOut; c != nil && windowsEqual(c.window, hist) {
			weights, gamma := c.weights, c.gamma
			r.cacheMu.Unlock()
			r.policyCacheHits.Add(1)
			if r.met != nil {
				r.met.policyCacheHits.Inc()
			}
			if bt != nil {
				bt.policyCacheHit = true
			}
			return weights, gamma, nil
		}
		r.cacheMu.Unlock()
	}
	// Cache miss: run the forward pass. Steady demand takes the pointer-equal
	// window fast path above and never reaches this.
	//gddr:allow hotpath forward pass runs only when the observed window changed
	weights, gamma, passes, err := r.decide(hist, bt)
	r.forwardPasses.Add(int64(passes))
	if r.met != nil {
		r.met.forwardPasses.Add(int64(passes))
	}
	if err != nil {
		return nil, 0, err
	}
	if !r.noCache {
		r.cacheMu.Lock()
		//gddr:allow hotpath cache refill happens once per window change, paired with the forward pass above
		r.lastOut = &policyOutput{window: hist, weights: weights, gamma: gamma}
		r.cacheMu.Unlock()
	}
	return weights, gamma, nil
}

// windowsEqual reports whether two history windows hold the same demand,
// with a pointer fast path per slot (steady demand re-pushes the same
// matrices) before falling back to entry comparison.
func windowsEqual(a, b []*DemandMatrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// strategyFor returns the routing strategy for (weights, gamma), reusing
// the cached one when the policy output is unchanged. With caching off it
// builds a fresh per-batch strategy, which still shares ratios within the
// batch (the pre-cache behaviour).
func (r *Router) strategyFor(weights []float64, gamma float64, bt *batchTrace) (*routing.Strategy, error) {
	if r.noCache {
		r.strategyMisses.Add(1)
		if r.met != nil {
			r.met.strategyMisses.Inc()
		}
		return r.buildStrategy(weights, gamma, bt)
	}
	r.cacheMu.Lock()
	if s := r.strategy; s != nil && s.Matches(weights, gamma) {
		r.cacheMu.Unlock()
		r.strategyHits.Add(1)
		if r.met != nil {
			r.met.strategyHits.Inc()
		}
		if bt != nil {
			bt.strategyCacheHit = true
		}
		return s, nil
	}
	r.cacheMu.Unlock()
	s, err := r.buildStrategy(weights, gamma, bt)
	if err != nil {
		return nil, err
	}
	r.strategyMisses.Add(1)
	if r.met != nil {
		r.met.strategyMisses.Inc()
	}
	r.cacheMu.Lock()
	r.strategy = s
	r.cacheMu.Unlock()
	return s, nil
}

// buildStrategy constructs a fresh routing strategy, timing it into the
// batch trace when tracing.
func (r *Router) buildStrategy(weights []float64, gamma float64, bt *batchTrace) (*routing.Strategy, error) {
	var start time.Time
	if bt != nil {
		start = time.Now()
	}
	//gddr:allow hotpath strategy rebuilds only when the policy emits new weights; steady state hits the cache
	s, err := routing.NewStrategy(r.g, weights, gamma)
	if bt != nil {
		bt.strategyNS = time.Since(start).Nanoseconds()
	}
	return s, err
}

// decide runs the policy on the demand history and returns the edge
// weights, softmin spread, and number of forward passes run (counted by the
// caller, so the construction-time probe never pollutes serving counters).
// The observation is built into a pooled Observer's buffers: MeanAction
// copies what it needs, so the buffers are free for reuse when decide
// returns. With bt non-nil the observation build and forward passes are
// timed into it.
func (r *Router) decide(hist []*DemandMatrix, bt *batchTrace) ([]float64, float64, int, error) {
	ob := r.observers.Get().(*env.Observer)
	defer r.observers.Put(ob)
	var stageStart time.Time
	if bt != nil {
		stageStart = time.Now()
	}
	obs, err := ob.Observe(r.g, hist)
	if err != nil {
		return nil, 0, 0, err
	}
	if bt != nil {
		now := time.Now()
		bt.observeNS = now.Sub(stageStart).Nanoseconds()
		stageStart = now
	}
	passes := 0
	ne := r.g.NumEdges()
	if r.agent.Kind == policy.GNNIterativeKind {
		// The iterative policy sets one edge per forward pass and emits γ
		// with its final action (paper §VII-B).
		pending := make([]float64, ne)
		set := make([]bool, ne)
		gamma := r.ecfg.Gamma
		for ei := 0; ei < ne; ei++ {
			obs.SetIterativeState(pending, set, ei)
			action, err := rl.MeanAction(r.agent.policy, obs)
			passes++
			if err != nil {
				return nil, 0, passes, err
			}
			if len(action) != 2 {
				return nil, 0, passes, fmt.Errorf("gddr: iterative policy emitted %d action values, want 2", len(action))
			}
			// Clamp to [-1,1] exactly as the training environment does
			// before storing pending values, so the per-edge observations
			// match the training distribution.
			pending[ei] = math.Max(-1, math.Min(1, action[0]))
			set[ei] = true
			if ei == ne-1 {
				gamma = env.GammaFromAction(action[1])
			}
		}
		weights := make([]float64, ne)
		for ei, a := range pending {
			weights[ei] = env.WeightFromAction(r.base[ei], r.ecfg.WeightScale, a)
		}
		if bt != nil {
			bt.forwardNS = time.Since(stageStart).Nanoseconds()
		}
		return weights, gamma, passes, nil
	}
	action, err := rl.MeanAction(r.agent.policy, obs)
	passes++
	if err != nil {
		return nil, 0, passes, err
	}
	if len(action) != ne {
		return nil, 0, passes, fmt.Errorf("gddr: policy emitted %d action values for %d edges", len(action), ne)
	}
	weights := make([]float64, ne)
	for ei, a := range action {
		weights[ei] = env.WeightFromAction(r.base[ei], r.ecfg.WeightScale, a)
	}
	if bt != nil {
		bt.forwardNS = time.Since(stageStart).Nanoseconds()
	}
	return weights, r.ecfg.Gamma, passes, nil
}

// evaluate derives the full Decision for dm under the batch's routing
// strategy. The demand in-sums are precomputed in one pass (replacing the
// per-sink column scans), propagation runs through pooled scratch buffers,
// and the strategy supplies cached per-sink splitting ratios. Only the
// caller-owned Decision fields are allocated.
func (r *Router) evaluate(dm *DemandMatrix, strat *routing.Strategy) (*Decision, error) {
	n := r.g.NumNodes()
	ne := r.g.NumEdges()
	sc := r.scratch.Get().(*evalScratch)
	defer r.scratch.Put(sc)
	sc.insums = grow(sc.insums, n)
	dm.InSums(sc.insums)
	sc.sinks = growInt(sc.sinks, n)
	nSinks := 0
	for v, in := range sc.insums {
		if in != 0 {
			sc.sinks[nSinks] = v
			nSinks++
		}
	}
	sinks := sc.sinks[:nSinks]

	// One backing array for the two per-edge result slices; the scratch
	// loads buffer is reset by construction, so reuse cannot double-count
	// (see Ratios.Loads' accumulation contract).
	//gddr:allow hotpath caller-owned Decision.Loads/Utilization backing; cannot come from the pool
	buf := make([]float64, 2*ne)
	loads, util := buf[:ne:ne], buf[ne:]
	if r.evalWorkers > 1 && len(sinks) > 1 {
		if err := r.evaluateSinksParallel(dm, strat, sinks, sc, loads); err != nil {
			return nil, err
		}
	} else {
		sc.inflow = grow(sc.inflow, n)
		for _, sink := range sinks {
			rt, err := strat.Ratios(sink)
			if err != nil {
				//gddr:allow hotpath error path
				return nil, fmt.Errorf("gddr: route sink %d: %w", sink, err)
			}
			if err := rt.AccumulateLoads(r.g, dm, loads, sc.inflow); err != nil {
				//gddr:allow hotpath error path
				return nil, fmt.Errorf("gddr: route sink %d: %w", sink, err)
			}
		}
	}

	//gddr:allow hotpath caller-owned Decision.Splits map, one per decision
	splits := make(map[int][]float64, len(sinks))
	for _, sink := range sinks {
		rt, err := strat.Ratios(sink)
		if err != nil {
			//gddr:allow hotpath error path
			return nil, fmt.Errorf("gddr: route sink %d: %w", sink, err)
		}
		//gddr:allow hotpath caller-owned copy of the cached ratios; the cache stays immutable
		splits[sink] = append([]float64(nil), rt.Ratio...)
	}
	maxU := 0.0
	for ei := range util {
		util[ei] = loads[ei] / r.g.Edge(ei).Capacity
		if util[ei] > maxU {
			maxU = util[ei]
		}
	}
	// The Decision and its Weights copy are the caller's to keep; everything
	// reusable above came from the scratch pool.
	//gddr:allow hotpath caller-owned Decision envelope, one per request
	return &Decision{
		//gddr:allow hotpath caller-owned copy of the cached weights
		Weights:        append([]float64(nil), strat.Weights()...),
		Gamma:          strat.Gamma(),
		Splits:         splits,
		Loads:          loads,
		Utilization:    util,
		MaxUtilization: maxU,
	}, nil
}

// evaluateSinksParallel fans the per-sink load propagation of one request
// out over the eval workers. Each sink's contribution lands in its own row
// of the scratch matrix and the rows are folded in sink order — each edge
// receives exactly one addition per sink, the same floating-point sequence
// as the sequential path, so parallel decisions are bit-identical.
func (r *Router) evaluateSinksParallel(dm *DemandMatrix, strat *routing.Strategy, sinks []int, sc *evalScratch, loads []float64) error {
	n := r.g.NumNodes()
	ne := r.g.NumEdges()
	sc.contrib = grow(sc.contrib, len(sinks)*ne)
	workers := r.evalWorkers
	if workers > len(sinks) {
		workers = len(sinks)
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errMu   sync.Mutex
		poolErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker needs a private inflow buffer for the whole
			// request; one allocation per worker per request is the cost of
			// the opt-in parallel path (WithEvalWorkers), not the default.
			//gddr:allow hotpath per-worker scratch on the opt-in parallel path
			inflow := make([]float64, n)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sinks) {
					return
				}
				row := sc.contrib[i*ne : (i+1)*ne]
				clear(row)
				rt, err := strat.Ratios(sinks[i])
				if err == nil {
					err = rt.AccumulateLoads(r.g, dm, row, inflow)
				}
				if err != nil {
					errMu.Lock()
					if poolErr == nil {
						//gddr:allow hotpath error path
						poolErr = fmt.Errorf("gddr: route sink %d: %w", sinks[i], err)
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if poolErr != nil {
		return poolErr
	}
	for i := range sinks {
		row := sc.contrib[i*ne : (i+1)*ne]
		for ei, c := range row {
			if c != 0 {
				loads[ei] += c
			}
		}
	}
	return nil
}
