package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// newTestRunner runs from the checkout the package sits in.
func newTestRunner(t *testing.T, name string) *runner {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, "..", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

// TestTracedChainFidelity checks that the traced chain is the engine's
// chain: at one worker it learns the golden with exactly the live queries
// and symbols of an untraced learn of the same seed, and its layers' self
// times account for the learn's wall time.
func TestTracedChainFidelity(t *testing.T) {
	r := newTestRunner(t, "cold-google")
	ctx := context.Background()
	const seed = 13
	s, ok := r.learnOnce(ctx, seed, 1)
	if !ok {
		t.Fatal("untraced learn failed")
	}
	tl, err := r.tracedOnce(ctx, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.checkModel(tl.model) {
		t.Fatal("traced learn differs from the golden")
	}
	if s.queries != tl.stats.Queries || s.symbols != tl.stats.Symbols {
		t.Fatalf("untraced %d queries / %d symbols, traced %d / %d",
			s.queries, s.symbols, tl.stats.Queries, tl.stats.Symbols)
	}
	t.Logf("seed %d, 1 worker: %d live queries, %d symbols", seed, s.queries, s.symbols)
	if share := attributed(tl.profile); share < minAttributed {
		t.Fatalf("layer self times cover %.2f%% of the wall time, want >= %.0f%%", 100*share, 100*minAttributed)
	}
}

// TestTracedChainPooled learns through the traced chain with the
// workloads' two pool workers, whose shards drive the seams from two
// goroutines; run it with -race.
func TestTracedChainPooled(t *testing.T) {
	r := newTestRunner(t, "cold-google")
	tl, err := r.tracedOnce(context.Background(), 13, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !r.checkModel(tl.model) {
		t.Fatal("traced learn differs from the golden")
	}
	v := layerValues([]*tracedLearn{tl})
	if v["learn.pool.busy_frac"] <= 0 || v["learn.pool.busy_frac"] > 1 {
		t.Errorf("learn.pool.busy_frac = %v, want in (0, 1]", v["learn.pool.busy_frac"])
	}
	if v["core.guard.votes_per_query"] != 2 {
		t.Errorf("core.guard.votes_per_query = %v on a clean link, want the MinVotes floor 2", v["core.guard.votes_per_query"])
	}
}

// spec is the part of BENCHMARK.json that perfbench output must match.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs the shortest untraced and traced
// runs of the cheapest workload and checks that they report exactly the
// metrics BENCHMARK.json declares, with the declared units, and that the
// benchmark knows every declared workload.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}

	r := newTestRunner(t, "warm-google")
	ctx := context.Background()
	if err := r.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, res result, want []struct{ Name, Unit string }) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s run: correct=%v attempted=%d failed=%d", kind, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s run reports %d metrics, BENCHMARK.json declares %d", kind, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s: got %+v (present %v), want unit %s", kind, m.Name, got, ok, m.Unit)
			}
		}
	}
	check("untraced", r.timed(ctx, 1), sp.EndToEnd)
	check("traced", r.traced(ctx, 1), sp.PerLayer)
}
