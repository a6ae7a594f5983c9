package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gddr"
)

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// requires a clean result: no failed operation, no violated workload
// property, and every metric of the printed set present.
func TestSmoke(t *testing.T) {
	serveBin := filepath.Join(t.TempDir(), "gddr-serve")
	build := exec.Command("go", "build", "-o", serveBin, "./cmd/gddr-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gddr-serve: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 0.6, trace: trace, serveBin: serveBin, workdir: t.TempDir(), tiny: true}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				o, err := workloads[name](ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				report(&buf, cfg, map[string]any{}, o)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, buf.String())
				}
				set := endToEnd
				if trace {
					set = perLayer
				}
				if len(res.Metrics) != len(set) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(set))
				}
				for _, m := range set {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v", m.name, got)
					} else if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g; it must never be 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestCheckDecisionRejects feeds checkDecision a decision whose loads do
// not follow from its splits.
func TestCheckDecisionRejects(t *testing.T) {
	agent, err := servingAgent()
	if err != nil {
		t.Fatal(err)
	}
	g, dm, d := routeOne(t, agent)
	if err := checkDecision(g, dm, d); err != nil {
		t.Fatalf("a real decision fails its check: %v", err)
	}
	d.Loads[0] *= 1.001
	if err := checkDecision(g, dm, d); err == nil {
		t.Fatal("a perturbed load passed the check")
	}
	d.Loads[0] /= 1.001
	for sink := range d.Splits {
		d.Splits[sink][0] += 0.01
		break
	}
	if err := checkDecision(g, dm, d); err == nil {
		t.Fatal("splits that do not sum to 1 passed the check")
	}
}

func routeOne(t *testing.T, agent *gddr.Agent) (*gddr.Graph, *gddr.DemandMatrix, *gddr.Decision) {
	t.Helper()
	g := gddr.Geant()
	seqs, err := gddr.GenerateSequencesSeeded(gddr.Bimodal(gddr.DefaultBimodalParams()), 1, g.NumNodes(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := gddr.NewEngine(agent, g)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	d, err := engine.Route(context.Background(), seqs[0][0])
	if err != nil {
		t.Fatal(err)
	}
	return g, seqs[0][0], d
}
