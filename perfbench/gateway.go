package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gddr"
	"gddr/internal/graph"
)

// gatewayParams sizes the gateway-churn workload: the gddr-serve binary
// serving its default Abilene tenant over loopback keep-alive HTTP, every
// request re-sending one steady matrix, with a link flap posted at a fixed
// low rate.
type gatewayParams struct {
	serveParams
	eventEvery time.Duration // one topology event (alternately down, up) per interval
	starts     int           // gateway starts timed for setup_s
	probes     int           // matrices routed to steady state for quality_ratio
}

func newGatewayParams(cfg config) gatewayParams {
	p := gatewayParams{
		serveParams: serveParams{rate: 600, callers: runtime.GOMAXPROCS(0), warmup: 500 * time.Millisecond, rounds: 10},
		eventEvery:  500 * time.Millisecond,
		starts:      21,
		probes:      32,
	}
	if cfg.tiny {
		p.rate, p.warmup, p.rounds, p.eventEvery, p.starts, p.probes = 200, 0, 1, 100*time.Millisecond, 1, 2
	}
	return p
}

// gateway is one running gddr-serve process.
type gateway struct {
	cmd  *exec.Cmd
	addr string
	base string
	log  *os.File
}

// startGateway execs gddr-serve on a free loopback port and waits until
// /healthz answers 200; the returned duration is exec-to-healthy.
func startGateway(ctx context.Context, cfg config, client *http.Client, trace bool) (*gateway, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(cfg.workdir, "gddr-serve.log"))
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr}
	if trace {
		args = append(args, "-trace")
	}
	start := time.Now()
	cmd := exec.Command(cfg.serveBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The gateway must not outlive the harness, even if the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", cfg.serveBin, err)
	}
	gw := &gateway{cmd: cmd, addr: addr, base: "http://" + addr, log: logf}
	for {
		resp, err := client.Get(gw.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return gw, time.Since(start), nil
			}
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			gw.stop()
			return nil, 0, fmt.Errorf("gddr-serve at %s never became healthy (see %s)", addr, logf.Name())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop interrupts the gateway, waits for it to exit, and returns its peak
// resident set size in MiB.
func (gw *gateway) stop() float64 {
	defer gw.log.Close()
	gw.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		gw.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		gw.cmd.Process.Kill()
		<-done
	}
	if ru, ok := gw.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func (gw *gateway) scrape(ctx context.Context, client *http.Client) (samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gw.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// conn is one keep-alive HTTP/1.1 connection to the gateway, used by one
// caller at a time. It writes each request and reads its reply on the
// caller's goroutine, so a timed request pays for no handoff between the
// harness's goroutines; net/http's client transport costs two.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// post sends one JSON body and returns the 200 reply. After any error the
// connection is closed, and the next post dials a new one.
func (c *conn) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	if c.c == nil {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return nil, err
		}
		if deadline, ok := ctx.Deadline(); ok {
			nc.SetDeadline(deadline)
		}
		c.c, c.br, c.bw = nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	}
	reply, err := c.roundTrip(path, body)
	if err != nil {
		c.close()
	}
	return reply, err
}

func (c *conn) roundTrip(path string, body []byte) ([]byte, error) {
	fmt.Fprintf(c.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, c.addr, len(body))
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(reply))
	}
	if resp.Close {
		c.close()
	}
	return reply, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// flap is the link the workload takes down and brings back up, and the
// graph each topology version serves: version 1 is intact, and every
// applied event advances the version by one.
type flap struct {
	u, v     int
	capacity float64

	mu     sync.Mutex
	graphs []*gddr.Graph // graphs[k] serves version k+1
}

// newFlap picks, from the seed, a link whose removal keeps the graph
// strongly connected, so every event of the workload succeeds.
func newFlap(g *gddr.Graph, seed int64) (*flap, error) {
	r := rand.New(rand.NewSource(seed))
	for _, ei := range r.Perm(g.NumEdges()) {
		e := g.Edge(ei)
		if _, err := graph.RemoveLink(g, e.From, e.To); err == nil {
			return &flap{u: e.From, v: e.To, capacity: e.Capacity, graphs: []*gddr.Graph{g}}, nil
		}
	}
	return nil, fmt.Errorf("no link of the topology can fail without disconnecting it")
}

// event returns the k-th event (0-based): down on even k, up on odd k.
func (f *flap) event(k int) gddr.Event {
	if k%2 == 0 {
		return gddr.LinkDown{From: f.u, To: f.v}
	}
	return gddr.LinkUp{From: f.u, To: f.v, Capacity: f.capacity}
}

// graphAt returns the topology of a version, applying the workload's
// events the way the engine does.
func (f *flap) graphAt(version int64) (*gddr.Graph, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for int64(len(f.graphs)) < version {
		k := len(f.graphs) - 1
		prev := f.graphs[k]
		var next *gddr.Graph
		var err error
		if k%2 == 0 {
			next, err = graph.RemoveLink(prev, f.u, f.v)
		} else {
			next, err = graph.AddLink(prev, f.u, f.v, f.capacity)
		}
		if err != nil {
			return nil, err
		}
		f.graphs = append(f.graphs, next)
	}
	if version < 1 {
		return nil, fmt.Errorf("topology version %d", version)
	}
	return f.graphs[version-1], nil
}

type routeReply struct {
	Decision        json.RawMessage `json:"decision"`
	TopologyVersion int64           `json:"topology_version"`
}

// replyChecker verifies gateway decisions. A decision is checked against
// the graph of the version the reply names, or an earlier one: the gateway
// reads the version after routing, so an event can land in between.
// Untraced decisions for one version are byte-identical under steady
// demand, so a decision equal to one already verified is not re-derived.
type replyChecker struct {
	flap *flap
	dm   *gddr.DemandMatrix

	mu       sync.Mutex
	verified map[int64][]byte
}

func (c *replyChecker) check(body []byte, traces traceLog, w int) error {
	var r routeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable route reply: %w", err)
	}
	c.mu.Lock()
	known := c.verified[r.TopologyVersion]
	c.mu.Unlock()
	if bytes.Equal(known, r.Decision) {
		return nil
	}
	var d gddr.Decision
	if err := json.Unmarshal(r.Decision, &d); err != nil {
		return fmt.Errorf("undecodable decision: %w", err)
	}
	traces.add(w, d.Trace)
	var firstErr error
	for v := r.TopologyVersion; v >= max(1, r.TopologyVersion-2); v-- {
		g, err := c.flap.graphAt(v)
		if err != nil {
			return err
		}
		if err := checkDecision(g, c.dm, &d); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("version %d decision: %w", r.TopologyVersion, err)
			}
			continue
		}
		if d.Trace == nil && v == r.TopologyVersion {
			c.mu.Lock()
			c.verified[v] = append([]byte(nil), r.Decision...)
			c.mu.Unlock()
		}
		return nil
	}
	return firstErr
}

func routeBody(dm *gddr.DemandMatrix) ([]byte, error) {
	rows := make([][]float64, dm.N)
	for s := range rows {
		rows[s] = dm.Data[s*dm.N : (s+1)*dm.N]
	}
	return json.Marshal(map[string]any{"demands": rows})
}

// probeQuality routes each probe matrix until the gateway's history window
// holds only that matrix, checks each decision, and compares the steady
// decisions' MLU with the LP optimum and shortest path. It runs before the
// load, on the intact topology, and leaves the history steady on the last
// probe, which is the load's steady matrix.
func probeQuality(ctx context.Context, o *outcome, gw *gateway, g *gddr.Graph, probes []*gddr.DemandMatrix) (routed, sp float64, err error) {
	c := conn{addr: gw.addr}
	defer c.close()
	var mlu []float64
	for _, dm := range probes {
		body, err := routeBody(dm)
		if err != nil {
			return 0, 0, err
		}
		var d gddr.Decision
		for k := 0; k <= serveMemory; k++ {
			reply, err := c.post(ctx, "/route", body)
			if err != nil {
				return 0, 0, err
			}
			var r struct {
				Decision gddr.Decision `json:"decision"`
			}
			if err := json.Unmarshal(reply, &r); err != nil {
				return 0, 0, fmt.Errorf("undecodable route reply: %w", err)
			}
			d = r.Decision
			o.check(checkDecision(g, dm, &d))
		}
		mlu = append(mlu, d.MaxUtilization)
	}
	return quality(ctx, o, g, probes, mlu)
}

// gatewayRun is one measured pass of the gateway-churn load.
type gatewayRun struct {
	*load
	eventMS            []float64
	events, eventFails int
	eventErrs          []string
	before, after      samples
	replyBytes         int64
	replies            int64
	traces             traceLog
}

func driveGateway(ctx context.Context, cfg config, p gatewayParams, gw *gateway, client *http.Client, checker *replyChecker, body []byte) (*gatewayRun, error) {
	run := &gatewayRun{traces: make(traceLog, p.callers)}
	conns := make([]conn, p.callers)
	for w := range conns {
		conns[w].addr = gw.addr
	}
	defer func() {
		for w := range conns {
			conns[w].close()
		}
	}()
	var mu sync.Mutex
	do := func(ctx context.Context, w, i int) (func() error, error) {
		reply, err := conns[w].post(ctx, "/route", body)
		if err != nil {
			return nil, err
		}
		return func() error {
			err := checker.check(reply, run.traces, w)
			mu.Lock()
			defer mu.Unlock()
			run.replyBytes += int64(len(reply))
			run.replies++
			return err
		}, nil
	}
	// Topology events ride on the callers: whichever caller finds the next
	// event due posts it, so the load never uses more than callers
	// connections, and events never overlap.
	var evMu sync.Mutex
	var evStart time.Time
	side := func(ctx context.Context, w int) bool {
		if !evMu.TryLock() {
			return false
		}
		defer evMu.Unlock()
		if evStart.IsZero() {
			return false // still warming up
		}
		k := run.events + run.eventFails
		due := evStart.Add(time.Duration(k+1) * p.eventEvery)
		if time.Now().Before(due) {
			return false
		}
		ev, err := gddr.MarshalEvent(checker.flap.event(k))
		if err == nil {
			sent := time.Now()
			_, err = conns[w].post(ctx, "/topology/event", ev)
			if err == nil {
				run.eventMS = append(run.eventMS, ms(time.Since(sent)))
				run.events++
				return true
			}
		}
		run.eventFails++
		if len(run.eventErrs) < 5 {
			run.eventErrs = append(run.eventErrs, err.Error())
		}
		return true
	}
	var err error
	run.load, err = phases(ctx, cfg, p.serveParams, do, side, func(int) error {
		var err error
		run.before, err = gw.scrape(ctx, client)
		evMu.Lock()
		evStart = time.Now()
		evMu.Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	if run.after, err = gw.scrape(ctx, client); err != nil {
		return nil, err
	}
	return run, nil
}

func runGateway(ctx context.Context, cfg config) (*outcome, error) {
	p := newGatewayParams(cfg)
	o := newOutcome()
	g := gddr.Abilene()
	f, err := newFlap(g, cfg.seed)
	if err != nil {
		return nil, err
	}
	seqs, err := gddr.GenerateSequencesSeeded(gddr.Bimodal(gddr.DefaultBimodalParams()), 1, g.NumNodes(), p.probes, cfg.seed)
	if err != nil {
		return nil, err
	}
	probes := seqs[0]
	dm := probes[len(probes)-1] // the steady matrix of the load
	body, err := routeBody(dm)
	if err != nil {
		return nil, err
	}
	// Health checks and /metrics scrapes; a transport of its own uses no
	// proxy from the environment.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// setup_s: exec to healthy, the median of several starts; the
	// last start serves.
	var setup []float64
	var gw *gateway
	for s := 0; s < p.starts; s++ {
		if gw != nil {
			gw.stop()
		}
		var took time.Duration
		if gw, took, err = startGateway(ctx, cfg, client, false); err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	routed, sp, err := probeQuality(ctx, o, gw, g, probes)
	if err != nil {
		gw.stop()
		return nil, err
	}
	checker := &replyChecker{flap: f, dm: dm, verified: map[int64][]byte{}}
	run, err := driveGateway(ctx, cfg, p, gw, client, checker, body)
	rss := gw.stop()
	if err != nil {
		return nil, err
	}
	run.record(o)
	o.attempt(run.events+run.eventFails, run.eventFails, run.eventErrs...)
	o.set("setup_s", median(setup), "s")
	o.set("peak_rss_mb", rss, "MiB")

	o.set("quality_ratio", routed, "ratio")
	o.note("sp_ratio", sp, "ratio")
	o.note("capacity_rps", o.metrics["throughput_per_s"].Value, "1/s")
	o.note("open_loop_rate", p.rate, "1/s")
	o.note("event_p50_ms", quantile(run.eventMS, 0.5), "ms")
	o.note("events", float64(run.events), "count")
	late := run.lateP99()
	hit := ratio(delta(run.before, run.after, "gddr_router_policy_cache_hits_total"), delta(run.before, run.after, "gddr_router_batches_total"))
	shed := delta(run.before, run.after, `gddr_fleet_shed_total{tenant="default"}`)
	o.note("policy_cache_hit_share", hit, "ratio")
	o.note("fleet_shed", shed, "count")
	if hit < 0.9 {
		o.invalidf("policy-cache hit share %.4f; gateway-churn needs steady demand to hit", hit)
	}
	if shed != 0 {
		o.invalidf("the gateway shed %g requests; gateway-churn must run below admission limits", shed)
	}
	if late > maxLateMS {
		o.invalidf("open-loop generator ran %.3f ms late at p99 (limit %g ms)", late, maxLateMS)
	}
	if !cfg.trace {
		return o, nil
	}

	untraced := o.metrics
	o.metrics = map[string]metric{}
	gw, _, err = startGateway(ctx, cfg, client, true)
	if err != nil {
		return nil, err
	}
	checker = &replyChecker{flap: newFlapFrom(f), dm: dm, verified: map[int64][]byte{}}
	trun, err := driveGateway(ctx, cfg, p, gw, client, checker, body)
	gw.stop()
	if err != nil {
		return nil, err
	}
	trun.count(o)
	o.attempt(trun.events+trun.eventFails, trun.eventFails, trun.eventErrs...)
	b, a := trun.before, trun.after
	routerLayers(o, trun.traces, b, a)
	const tenant = `{tenant="default"}`
	const route = `{path="/route"}`
	o.set("engine.apply_ms", 1e3*meanDelta(b, a, "gddr_engine_event_apply_seconds", ""), "ms")
	o.set("engine.rebuild_ms", 1e3*meanDelta(b, a, "gddr_engine_snapshot_rebuild_seconds", ""), "ms")
	o.set("engine.drain_ms", 1e3*meanDelta(b, a, "gddr_engine_snapshot_drain_seconds", ""), "ms")
	o.set("engine.events", delta(b, a, "gddr_engine_events_applied_total"), "count")
	o.set("engine.event_p50_ms", quantile(trun.eventMS, 0.5), "ms")
	fleetUS := 1e6 * meanDelta(b, a, "gddr_fleet_route_seconds", tenant)
	httpUS := 1e6 * meanDelta(b, a, "gddr_http_request_seconds", route)
	o.set("fleet.self_us", fleetUS-o.metrics["router.route_us"].Value, "us")
	o.set("fleet.shed", delta(b, a, "gddr_fleet_shed_total"+tenant), "count")
	o.set("serve.http_self_us", httpUS-fleetUS, "us")
	timed := append(append([]*phaseResult(nil), trun.open...), trun.closed...)
	clientUS := 1e3 * mean(pooled(timed, func(p *phaseResult) []float64 { return p.sendMS }))
	o.set("serve.client_overhead_us", clientUS-httpUS, "us")
	o.note("router_share_pct", 100*ratio(o.metrics["router.route_us"].Value, clientUS), "%")
	o.set("serve.response_bytes", ratio(float64(trun.replyBytes), float64(trun.replies)), "bytes")
	o.set("load.late_p99_ms", trun.lateP99(), "ms")
	o.set("trace.overhead_pct", 100*(untraced["throughput_per_s"].Value/trun.capacity()-1), "%")
	for name, m := range untraced {
		o.note("untraced."+name, m.Value, m.Unit)
	}
	return o, nil
}

// newFlapFrom returns f's link with a fresh version history, for a new
// gateway process that starts at version 1.
func newFlapFrom(f *flap) *flap {
	return &flap{u: f.u, v: f.v, capacity: f.capacity, graphs: []*gddr.Graph{f.graphs[0]}}
}
