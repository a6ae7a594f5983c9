// Command perfbench is the repository benchmark. It runs one workload —
// train, route-fresh or gateway-churn — from a seed, checks every output,
// and prints its metrics; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// tracing. With -trace 1 the workload runs once untraced and once traced,
// and the metrics are the per-layer set, taken from decorators around the
// calls into each layer and from the instruments the program exports.
//
// Run it through run.sh, which builds it and the gddr-serve gateway first:
//
//	bash perfbench/run.sh --workload route-fresh --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string // gddr-serve binary (gateway-churn only)
	workdir  string // scratch directory for the gateway's log
	tiny     bool   // smoke-test scale: minimal inputs, same code paths
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int64
	failed    int64
	errs      []string          // first few failed-operation messages
	invalid   []string          // workload properties the run lacked
	metrics   map[string]metric // end-to-end (untraced) or per-layer (traced)
	detail    map[string]metric // workload-specific figures, printed only
	rounds    string            // per-round (or per-repetition) figures, printed only
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]metric{}}
}

func (o *outcome) set(name string, v float64, unit string)  { o.metrics[name] = metric{v, unit} }
func (o *outcome) note(name string, v float64, unit string) { o.detail[name] = metric{v, unit} }
func (o *outcome) invalidf(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

// attempt counts operations, of which failed failed with the given
// messages.
func (o *outcome) attempt(attempted, failed int, errs ...string) {
	o.attempted += int64(attempted)
	o.failed += int64(failed)
	for _, e := range errs {
		if len(o.errs) < 10 {
			o.errs = append(o.errs, e)
		}
	}
}

// check counts one checked operation.
func (o *outcome) check(err error) {
	if err != nil {
		o.attempt(1, 1, err.Error())
		return
	}
	o.attempt(1, 0)
}

// endToEnd and perLayer are the metric sets BENCHMARK.json declares. Every
// run prints its whole set: a layer a workload leaves idle reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"quality_ratio", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"rl.update_s", "s"},
	{"rl.collect_s", "s"},
	{"rl.updates", "count"},
	{"gnn.forward_us", "us"},
	{"gnn.forward_calls", "count"},
	{"ad.backward_optim_s", "s"},
	{"mat.flop_per_forward", "flop"},
	{"mat.gflops", "GFLOP/s"},
	{"env.step_us", "us"},
	{"env.steps", "count"},
	{"routing.strategy_us", "us"},
	{"routing.strategy_builds", "count"},
	{"lp.solves", "count"},
	{"lp.cold", "count"},
	{"lp.warm", "count"},
	{"lp.pivots_per_solve", "count"},
	{"lp.solve_ms", "ms"},
	{"lp.cache_hit_ratio", "ratio"},
	{"router.queue_wait_p50_us", "us"},
	{"router.queue_wait_p99_us", "us"},
	{"router.batch_size_mean", "count"},
	{"router.policy_cache_hit_ratio", "ratio"},
	{"router.strategy_cache_hit_ratio", "ratio"},
	{"router.forward_passes_per_request", "ratio"},
	{"router.observe_us", "us"},
	{"router.forward_us", "us"},
	{"router.evaluate_us", "us"},
	{"router.route_us", "us"},
	{"engine.apply_ms", "ms"},
	{"engine.rebuild_ms", "ms"},
	{"engine.drain_ms", "ms"},
	{"engine.events", "count"},
	{"engine.event_p50_ms", "ms"},
	{"fleet.self_us", "us"},
	{"fleet.shed", "count"},
	{"serve.http_self_us", "us"},
	{"serve.client_overhead_us", "us"},
	{"serve.response_bytes", "bytes"},
	{"load.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"train":         runTrain,
	"route-fresh":   runRouteFresh,
	"gateway-churn": runGateway,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: train, route-fresh or gateway-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run, split between the untraced and the traced pass when tracing")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of a traced run")
	fs.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/gddr-serve", "gddr-serve binary for gateway-churn")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for gateway logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	// Every run ends well inside three minutes, traced runs included.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	prov, err := provenance(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A traced run measures the workload untraced and then traced, each for
	// half the seconds, so that it lasts as long as an untraced run.
	if cfg.trace {
		cfg.seconds /= 2
	}
	total0, steal0 := cpuTicks()
	out, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Time the hypervisor gave to other guests slows every workload; a
	// run measured under more than a few percent describes the host more
	// than the code.
	total1, steal1 := cpuTicks()
	out.note("host_steal_pct", 100*ratio(steal1-steal0, total1-total0), "%")
	report(stdout, cfg, prov, out)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable lines, then the result object last.
func report(w io.Writer, cfg config, prov map[string]any, o *outcome) {
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", pj)
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range set {
		v := o.metrics[m.name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		metrics[m.name] = metric{v.Value, m.unit}
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", m.name, v.Value, m.unit)
	}
	var names []string
	for n := range o.detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "detail %-36s %14.6g %s\n", n, o.detail[n].Value, o.detail[n].Unit)
	}
	if o.rounds != "" {
		fmt.Fprintf(w, "rounds %s\n", o.rounds)
	}
	for _, e := range o.errs {
		fmt.Fprintf(w, "failed %s\n", e)
	}
	for _, e := range o.invalid {
		fmt.Fprintf(w, "invalid %s\n", e)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   o.failed == 0 && len(o.invalid) == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   metrics,
	}
	rj, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", rj)
}
