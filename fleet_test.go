package gddr

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testTenantConfig is a small, fast tenant shape for lifecycle tests: the
// same tiny GNN testRouterAgent uses, cold-started per tenant.
func testTenantConfig(topology string) TenantConfig {
	return TenantConfig{Topology: topology, Memory: 2, GNNHidden: 8, GNNSteps: 1, MaxBatch: 4}
}

func TestFleetLifecycle(t *testing.T) {
	fleet := NewFleet()
	defer fleet.Close()
	ctx := context.Background()

	for _, tc := range []struct{ id, topology string }{
		{"beta", "nsfnet"},
		{"alpha", "abilene"},
		{"gamma", "b4"},
	} {
		if _, err := fleet.Create(tc.id, testTenantConfig(tc.topology)); err != nil {
			t.Fatalf("Create(%q): %v", tc.id, err)
		}
	}
	if got, want := fleet.List(), []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List() = %v, want %v", got, want)
	}
	if fleet.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", fleet.Len())
	}

	if _, err := fleet.Create("alpha", testTenantConfig("abilene")); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Create = %v, want ErrTenantExists", err)
	}
	if _, err := fleet.Create("Bad ID!", testTenantConfig("abilene")); err == nil {
		t.Fatal("Create with invalid id succeeded")
	}
	if _, err := fleet.Tenant("nope"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("Tenant(nope) = %v, want ErrNoTenant", err)
	}

	// Every tenant routes on its own topology: decision shapes follow the
	// tenant's graph, proving the engines are independent.
	for id, nodes := range map[string]int{"alpha": 11, "beta": 14, "gamma": 12} {
		tenant, err := fleet.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := tenant.Engine().Snapshot().Nodes; got != nodes {
			t.Fatalf("tenant %q serves %d nodes, want %d", id, got, nodes)
		}
		g, err := tenantGraph(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tenant.Route(ctx, testDemand(g, 1)); err != nil {
			t.Fatalf("tenant %q Route: %v", id, err)
		}
	}

	// Delete closes the tenant's engine; holders of the old handle observe
	// ErrClosed, new lookups observe ErrNoTenant.
	beta, err := fleet.Tenant("beta")
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Tenant("beta"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("Tenant(beta) after delete = %v, want ErrNoTenant", err)
	}
	if err := fleet.Delete("beta"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("double Delete = %v, want ErrNoTenant", err)
	}
	g := NSFNet()
	if _, err := beta.Route(ctx, testDemand(g, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Route on deleted tenant = %v, want ErrClosed", err)
	}

	fleet.Close()
	if _, err := fleet.Create("late", testTenantConfig("abilene")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after Close = %v, want ErrClosed", err)
	}
	if fleet.Len() != 0 {
		t.Fatalf("Len() after Close = %d, want 0", fleet.Len())
	}
}

// tenantGraph recovers the tenant's serving graph for demand generation.
func tenantGraph(tenant *Tenant) (*Graph, error) {
	return tenant.Engine().Graph(), nil
}

func TestFleetMaxTenants(t *testing.T) {
	fleet := NewFleet(WithMaxTenants(1))
	defer fleet.Close()
	if _, err := fleet.Create("one", testTenantConfig("abilene")); err != nil {
		t.Fatal(err)
	}
	_, err := fleet.Create("two", testTenantConfig("nsfnet"))
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("Create past the tenant bound = %v, want capacity error", err)
	}
}

func TestTenantConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  TenantConfig
		want string // "" means valid
	}{
		{"sparse config defaults", TenantConfig{Topology: "abilene"}, ""},
		{"full config", testTenantConfig("geant"), ""},
		{"missing topology", TenantConfig{}, "topology"},
		{"unknown topology", TenantConfig{Topology: "arpanet"}, "arpanet"},
		{"unknown policy", TenantConfig{Topology: "abilene", Policy: "transformer"}, "transformer"},
		{"negative memory", TenantConfig{Topology: "abilene", Memory: -1}, "memory"},
		{"negative workers", TenantConfig{Topology: "abilene", Workers: -2}, "workers"},
		{"negative rate", TenantConfig{Topology: "abilene", RateLimit: -1}, "rate_limit"},
		{"negative queue", TenantConfig{Topology: "abilene", QueueDepth: -3}, "queue_depth"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestTenantConfigDefaults(t *testing.T) {
	cfg := TenantConfig{Topology: "abilene", RateLimit: 2.5}.withDefaults()
	if cfg.Policy != "gnn" || cfg.Memory != 3 || cfg.GNNHidden != 16 || cfg.GNNSteps != 2 {
		t.Fatalf("policy defaults not applied: %+v", cfg)
	}
	if cfg.MaxBatch != 16 || cfg.QueueDepth != defaultQueueDepth {
		t.Fatalf("engine defaults not applied: %+v", cfg)
	}
	if cfg.Burst != 3 { // ceil(2.5): the bucket must admit at least the rate
		t.Fatalf("Burst = %d, want ceil(RateLimit) = 3", cfg.Burst)
	}
	if unlimited := (TenantConfig{Topology: "abilene"}).withDefaults(); unlimited.Burst != 0 {
		t.Fatal("Burst defaulted without a rate limit")
	}
}

// TestFleetAdmissionQueueFull drives the admission queue to saturation
// deterministically: the white-box test occupies every in-flight slot
// itself, so the next Route must shed with ErrOverloaded without touching
// the engine.
func TestFleetAdmissionQueueFull(t *testing.T) {
	fleet := NewFleet()
	defer fleet.Close()
	cfg := testTenantConfig("abilene")
	cfg.QueueDepth = 2
	tenant, err := fleet.CreateWithAgent("hot", cfg, testRouterAgent(t), Abilene())
	if err != nil {
		t.Fatal(err)
	}
	g := Abilene()
	ctx := context.Background()

	tenant.adm.slots <- struct{}{}
	tenant.adm.slots <- struct{}{}
	if _, err := tenant.Route(ctx, testDemand(g, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Route with a full admission queue = %v, want ErrOverloaded", err)
	}
	if got := tenant.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	<-tenant.adm.slots
	if _, err := tenant.Route(ctx, testDemand(g, 1)); err != nil {
		t.Fatalf("Route after freeing a slot: %v", err)
	}
	if got := tenant.admitted.Value(); got != 1 {
		t.Fatalf("admitted counter = %d, want 1", got)
	}
	<-tenant.adm.slots
	if got := len(tenant.adm.slots); got != 0 {
		t.Fatalf("%d admission slots leaked", got)
	}
}

// TestFleetRateLimit exhausts a one-token bucket with a negligible refill
// rate: the first request spends the burst, the second must shed — and must
// release its admission slot on the way out.
func TestFleetRateLimit(t *testing.T) {
	fleet := NewFleet()
	defer fleet.Close()
	cfg := testTenantConfig("abilene")
	cfg.RateLimit = 1e-9
	cfg.Burst = 1
	tenant, err := fleet.CreateWithAgent("limited", cfg, testRouterAgent(t), Abilene())
	if err != nil {
		t.Fatal(err)
	}
	g := Abilene()
	ctx := context.Background()

	if _, err := tenant.Route(ctx, testDemand(g, 1)); err != nil {
		t.Fatalf("first Route within burst: %v", err)
	}
	if _, err := tenant.Route(ctx, testDemand(g, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Route past the rate limit = %v, want ErrOverloaded", err)
	}
	if got := len(tenant.adm.slots); got != 0 {
		t.Fatalf("shed request leaked %d admission slots", got)
	}
	if got := tenant.shed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// steadyDecision computes the reference decision a steady demand converges
// to on (agent, g) after the given events: once the history window holds
// only dm, the decision is a pure function of (weights, topology, window),
// so any snapshot serving the same state must reproduce it bit-for-bit.
func steadyDecision(t *testing.T, agent *Agent, g *Graph, dm *DemandMatrix, events ...Event) *Decision {
	t.Helper()
	e, err := NewEngine(agent, g)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if len(events) > 0 {
		if err := e.Apply(ctx, events...); err != nil {
			t.Fatal(err)
		}
	}
	var d *Decision
	for i := 0; i < 3; i++ { // memory=2: step 3 sees the saturated window
		if d, err = e.Route(ctx, dm); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestFleetRouteStress is the -race stress test: concurrent Route traffic
// into one tenant interleaved with capacity flaps, checkpoint swaps of
// identical weights, and sibling tenant create/delete churn. With a steady
// demand every decision is a pure function of the published snapshot, so
// each observed decision must be bit-identical to one of the two reference
// engines' (pre- and post-flap) — anything else means a half-published
// snapshot, a torn history, or cross-tenant bleed.
func TestFleetRouteStress(t *testing.T) {
	agent := testRouterAgent(t)
	g := Abilene()
	dm := testDemand(g, 42)
	up := CapacityChange{From: 0, To: 1, Capacity: 1000}
	down := CapacityChange{From: 0, To: 1, Capacity: 250}

	refUp := steadyDecision(t, agent, g, dm, up)
	refDown := steadyDecision(t, agent, g, dm, down)
	if reflect.DeepEqual(refUp, refDown) {
		t.Fatal("capacity flap does not change the reference decision; the stress test would prove nothing")
	}

	fleet := NewFleet()
	defer fleet.Close()
	cfg := testTenantConfig("abilene")
	cfg.QueueDepth = 256
	tenant, err := fleet.CreateWithAgent("hot", cfg, agent, g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tenant.Engine().Apply(ctx, up); err != nil {
		t.Fatal(err)
	}
	// Saturate the history window before racing: every decision
	// from here on sees window [dm, dm].
	for i := 0; i < 2; i++ {
		if _, err := tenant.Route(ctx, dm); err != nil {
			t.Fatal(err)
		}
	}

	checkpoint := new(bytes.Buffer)
	if err := agent.SaveCheckpoint(checkpoint); err != nil {
		t.Fatal(err)
	}
	ckptBytes := checkpoint.Bytes()

	routesPerWorker, flaps, swaps, churns := 120, 12, 6, 6
	if testing.Short() {
		routesPerWorker, flaps, swaps, churns = 40, 6, 3, 3
	}

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		divergent atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < routesPerWorker; i++ {
				d, err := tenant.Route(ctx, dm)
				if err != nil {
					t.Errorf("stress Route: %v", err)
					return
				}
				if !reflect.DeepEqual(d, refUp) && !reflect.DeepEqual(d, refDown) {
					divergent.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // capacity flapper: alternates the two reference topologies
		defer wg.Done()
		for i := 0; i < flaps; i++ {
			event := down
			if i%2 == 1 {
				event = up
			}
			if err := tenant.Engine().Apply(ctx, event); err != nil {
				t.Errorf("stress Apply: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // swapper: hot-swaps the identical checkpoint
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if err := tenant.Engine().SwapCheckpoint(ctx, bytes.NewReader(ckptBytes)); err != nil {
				t.Errorf("stress SwapCheckpoint: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // churner: sibling tenants come and go under the same fleet
		defer wg.Done()
		churnAgent := testRouterAgent(t)
		for i := 0; i < churns; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sibling, err := fleet.CreateWithAgent("churn", testTenantConfig("nsfnet"), churnAgent, NSFNet())
			if err != nil {
				t.Errorf("stress Create: %v", err)
				return
			}
			if _, err := sibling.Route(ctx, testDemand(NSFNet(), int64(i))); err != nil {
				t.Errorf("stress sibling Route: %v", err)
				return
			}
			if err := fleet.Delete("churn"); err != nil {
				t.Errorf("stress Delete: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)

	if n := divergent.Load(); n > 0 {
		t.Errorf("%d concurrent decisions matched neither reference", n)
	}
	if _, err := fleet.Tenant("hot"); err != nil {
		t.Errorf("hot tenant lost during churn: %v", err)
	}
}

func TestParseFleetFile(t *testing.T) {
	parse := func(s string) (*FleetFile, error) { return ParseFleetFile(strings.NewReader(s)) }

	file, err := parse(`{
		"default": "prod",
		"tenants": {
			"prod":    {"topology": "abilene", "max_batch": 32, "rate_limit": 500},
			"staging": {"topology": "nsfnet"}
		}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if file.Default != "prod" || len(file.Tenants) != 2 {
		t.Fatalf("parsed %+v, want explicit default prod with 2 tenants", file)
	}
	if file.Tenants["prod"].MaxBatch != 32 || file.Tenants["prod"].RateLimit != 500 {
		t.Fatalf("prod config lost fields: %+v", file.Tenants["prod"])
	}

	file, err = parse(`{"tenants": {"default": {"topology": "abilene"}, "aaa": {"topology": "b4"}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if file.Default != "default" {
		t.Fatalf("Default = %q, want the tenant literally named default", file.Default)
	}

	file, err = parse(`{"tenants": {"zulu": {"topology": "abilene"}, "alpha": {"topology": "b4"}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if file.Default != "alpha" {
		t.Fatalf("Default = %q, want first sorted id alpha", file.Default)
	}

	for name, bad := range map[string]string{
		"empty tenants":         `{"tenants": {}}`,
		"missing default":       `{"default": "gone", "tenants": {"a": {"topology": "abilene"}}}`,
		"unknown top field":     `{"tenants": {"a": {"topology": "abilene"}}, "extra": 1}`,
		"unknown config field":  `{"tenants": {"a": {"topology": "abilene", "shards": 9}}}`,
		"invalid tenant id":     `{"tenants": {"Bad ID!": {"topology": "abilene"}}}`,
		"invalid tenant config": `{"tenants": {"a": {"topology": "arpanet"}}}`,
	} {
		if _, err := parse(bad); err == nil {
			t.Errorf("%s: ParseFleetFile accepted %s", name, bad)
		}
	}

	// Engines serve each snapshot through one Router; a config still
	// asking for read replicas must fail loudly, naming the field.
	_, err = parse(`{"tenants": {"a": {"topology": "abilene", "replicas": 2}}}`)
	if err == nil || !strings.Contains(err.Error(), `"replicas"`) {
		t.Errorf("fleet file with replicas: ParseFleetFile = %v, want an unknown-field error naming \"replicas\"", err)
	}
}

func TestFleetBoot(t *testing.T) {
	file, err := ParseFleetFile(strings.NewReader(`{
		"tenants": {
			"east": {"topology": "abilene", "memory": 2, "gnn_hidden": 8, "gnn_steps": 1},
			"west": {"topology": "nsfnet", "memory": 2, "gnn_hidden": 8, "gnn_steps": 1}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet()
	defer fleet.Close()
	if err := fleet.Boot(file); err != nil {
		t.Fatal(err)
	}
	if got, want := fleet.List(), []string{"east", "west"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List() = %v, want %v", got, want)
	}
	ctx := context.Background()
	for id, g := range map[string]*Graph{"east": Abilene(), "west": NSFNet()} {
		tenant, err := fleet.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tenant.Route(ctx, testDemand(g, 3)); err != nil {
			t.Fatalf("tenant %q Route: %v", id, err)
		}
	}
}

// TestAdmissionTokenBucketConcurrent is the lockguard audit of the tenant
// admission path (tokens/last are mu-guarded, tenant.go) turned into a -race
// regression test: many goroutines hammer takeToken while the invariants the
// lock protects are asserted. The audit found every tokens/last access
// already under mu — this test keeps it that way: any future out-of-lock
// read or write trips the race detector in CI's `go test -race`.
func TestAdmissionTokenBucketConcurrent(t *testing.T) {
	cfg := TenantConfig{Topology: "abilene", RateLimit: 1000, Burst: 8}.withDefaults()
	a := newAdmission(cfg)
	const workers = 8
	const perWorker = 200
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if a.takeToken() {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// The bucket can never admit more than its initial burst plus what the
	// elapsed wall time refilled (generous +1 slop for the fractional token
	// in flight when the clock was read).
	limit := cfg.Burst + int(elapsed*cfg.RateLimit) + 1
	if got := admitted.Load(); got < 1 || got > int64(limit) {
		t.Fatalf("admitted %d of %d attempts, want within [1, %d]", got, workers*perWorker, limit)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tokens > a.burst {
		t.Fatalf("tokens %g exceeds burst %g after concurrent refills", a.tokens, a.burst)
	}
}
