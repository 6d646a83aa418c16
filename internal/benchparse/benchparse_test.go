package benchparse

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLearnTCPFull-8   	      12	  95123456 ns/op	      4726 queries
BenchmarkLearnUnderLoss/loss=5%/workers=4         	       1	 334802372 ns/op	        21.00 escalations	      2613 queries	      2613 votes	      2219 wasted-votes
BenchmarkWirePath 	   10000	    105000 ns/op
PASS
ok  	repro	1.827s
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Env["goos"] != "linux" || f.Env["cpu"] == "" || f.Env["gomaxprocs"] != "8" {
		t.Fatalf("env not captured: %v", f.Env)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	tcp := f.Benchmarks[0]
	if tcp.Name != "LearnTCPFull" {
		t.Fatalf("cpu suffix not stripped: %q", tcp.Name)
	}
	if tcp.Iterations != 12 || tcp.Metrics["ns/op"] != 95123456 || tcp.Metrics["queries"] != 4726 {
		t.Fatalf("tcp result mangled: %+v", tcp)
	}
	loss := f.Benchmarks[1]
	if loss.Name != "LearnUnderLoss/loss=5%/workers=4" {
		t.Fatalf("sub-benchmark name mangled: %q", loss.Name)
	}
	if loss.Metrics["escalations"] != 21 || loss.Metrics["wasted-votes"] != 2219 {
		t.Fatalf("custom metrics mangled: %+v", loss.Metrics)
	}
	if f.Benchmarks[2].Metrics["ns/op"] != 105000 {
		t.Fatalf("plain result mangled: %+v", f.Benchmarks[2])
	}
}

// bench builds a one-line File for comparison tests.
func bench(name string, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1, Metrics: metrics}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := &File{Benchmarks: []Result{
		bench("PooledLearning/workers=4", map[string]float64{"ns/op": 100, "queries": 4000}),
		bench("LearnUnderLoss/loss=5%/workers=4", map[string]float64{"ns/op": 200, "queries": 9000}),
		bench("WirePath", map[string]float64{"ns/op": 50}),
	}}
	cur := &File{Benchmarks: []Result{
		bench("PooledLearning/workers=4", map[string]float64{"ns/op": 140, "queries": 4000}),          // +40% ns/op
		bench("LearnUnderLoss/loss=5%/workers=4", map[string]float64{"ns/op": 210, "queries": 12000}), // +33% queries
		bench("WirePath", map[string]float64{"ns/op": 500}),                                           // outside -match: ignored
		bench("BrandNew", map[string]float64{"ns/op": 1}),                                             // no baseline: ignored
	}}
	regs := Compare(old, cur, []string{"PooledLearning", "LearnUnderLoss"}, []string{"ns/op", "queries"}, 0.30)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Name != "PooledLearning/workers=4" || regs[0].Metric != "ns/op" {
		t.Fatalf("first regression wrong: %+v", regs[0])
	}
	if regs[1].Name != "LearnUnderLoss/loss=5%/workers=4" || regs[1].Metric != "queries" {
		t.Fatalf("second regression wrong: %+v", regs[1])
	}
	if regs[1].Increase < 0.33 || regs[1].Increase > 0.34 {
		t.Fatalf("increase = %v, want ~0.333", regs[1].Increase)
	}
}

func TestCompareWithinToleranceAndImprovements(t *testing.T) {
	old := &File{Benchmarks: []Result{
		bench("PooledLearning", map[string]float64{"ns/op": 100}),
		bench("LearnUnderLoss", map[string]float64{"ns/op": 100}),
	}}
	cur := &File{Benchmarks: []Result{
		bench("PooledLearning", map[string]float64{"ns/op": 129}), // +29%: within tolerance
		bench("LearnUnderLoss", map[string]float64{"ns/op": 10}),  // 10x faster: never a regression
	}}
	if regs := Compare(old, cur, nil, nil, 0.30); len(regs) != 0 {
		t.Fatalf("tolerated changes flagged: %+v", regs)
	}
}

func TestCompareDefaultsAndMissingMetrics(t *testing.T) {
	old := &File{Benchmarks: []Result{
		bench("A", map[string]float64{"ns/op": 100, "queries": 10}),
		bench("B", map[string]float64{"queries": 10}), // no ns/op on either side
	}}
	cur := &File{Benchmarks: []Result{
		bench("A", map[string]float64{"ns/op": 200}), // queries disappeared: skipped
		bench("B", map[string]float64{"queries": 100}),
	}}
	// Default metric list is ns/op only, default prefix list matches all.
	regs := Compare(old, cur, nil, nil, 0.30)
	if len(regs) != 1 || regs[0].Name != "A" || regs[0].Metric != "ns/op" {
		t.Fatalf("default comparison wrong: %+v", regs)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	f, err := Parse(strings.NewReader("BenchmarkBroken FAIL\nrandom text\n--- FAIL: TestX\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 0 {
		t.Fatalf("noise parsed as benchmarks: %+v", f.Benchmarks)
	}
	if f.Env != nil {
		t.Fatalf("no env lines, got %v", f.Env)
	}
}
