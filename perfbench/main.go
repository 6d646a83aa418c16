// Command perfbench is the repository's benchmark. It runs one learn
// workload in a closed loop through lab.NewExperiment and
// Experiment.Learn — the path the CLI and prognosisd take — checks every
// learned model against its golden, and prints the end-to-end metrics by
// name and unit. With --trace 1 it instead learns through a hand-built
// copy of the engine's oracle chain with a timing wrapper at each layer
// seam, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"learn_s": {"value": 0.61, "unit": "s"}, ...}}
//
// Build and run it with perfbench/run.sh from the repository root; the
// workloads and metrics are described in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/automata"
	"repro/internal/lab"
	"repro/internal/learncfg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: generates the per-learn seeds and the prepared warm store")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced chain and prints the per-layer metrics")
	root := flag.String("root", ".", "repository checkout to read goldens from and write scratch files under")
	refadapter := flag.String("refadapter", "", "path of the built cmd/refadapter binary")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	r, err := newRunner(w, *root, *refadapter, *seed)
	if err != nil {
		return err
	}
	defer r.close()

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Println("env:", environment())
	ctx := context.Background()
	if err := r.prepare(ctx); err != nil {
		return err
	}
	var res result
	if *trace == 1 {
		res = r.traced(ctx, time.Duration(*seconds)*time.Second)
	} else {
		res = r.timed(ctx, time.Duration(*seconds)*time.Second)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add records a metric and prints it on its own line.
func (res *result) add(name string, value float64, unit, note string) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("  %-32s %14.6g %-6s %s\n", name, value, unit, note)
}

// runner holds what every learn of one run shares.
type runner struct {
	w          workload
	refadapter string
	work       string // scratch directory for stores, removed by close
	golden     *analysis.Model
	seeds      *rand.Rand
	warmSeeds  []int64 // the seeds of the prepared warm stores, used in turn
	learns     int
	stores     int
}

func newRunner(w workload, root, refadapter string, seed int64) (*runner, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if w.target == lab.TargetAdapter {
		if refadapter == "" {
			return nil, fmt.Errorf("workload %s needs -refadapter", w.name)
		}
		if _, err := os.Stat(refadapter); err != nil {
			return nil, fmt.Errorf("refadapter: %w", err)
		}
	}
	golden, err := analysis.LoadModel(w.goldenPath(root))
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		w: w, refadapter: refadapter, work: work, golden: golden,
		seeds: rand.New(rand.NewSource(seed)),
	}
	if w.store == storeWarm {
		for i := 0; i < warmStores; i++ {
			r.warmSeeds = append(r.warmSeeds, r.drawSeed())
		}
	}
	return r, nil
}

func (r *runner) close() { os.RemoveAll(r.work) }

// nextSeed draws the seed of the next learn. Warm learns take the seeds
// of the prepared stores in turn, since a store is keyed by its seed.
func (r *runner) nextSeed() int64 {
	if len(r.warmSeeds) > 0 {
		r.learns++
		return r.warmSeeds[r.learns%len(r.warmSeeds)]
	}
	return r.drawSeed()
}

// drawSeed draws a fresh learn seed from the workload seed's stream.
func (r *runner) drawSeed() int64 { return 1 + r.seeds.Int63n(1<<20) }

// warmStores is how many stores the warm workload prepares, each for its
// own seed: the cost of a warm relearn depends on the seed, and figures
// over several seeds move less from run to run than one seed's do.
const warmStores = 12

// config resolves one learn's configuration: the workload's, with the
// given seed, worker count and store directory.
func (r *runner) config(seed int64, nworkers int) learncfg.Config {
	cfg := r.w.config(seed, r.refadapter)
	cfg.Workers = nworkers
	switch r.w.store {
	case storeFresh:
		r.stores++
		cfg.Store = filepath.Join(r.work, fmt.Sprintf("store-%d", r.stores))
	case storeWarm:
		cfg.Store = filepath.Join(r.work, "warm-stores")
	}
	return cfg
}

// dropStore removes a fresh per-learn store once its learn is done.
func (r *runner) dropStore(cfg learncfg.Config) {
	if r.w.store == storeFresh && cfg.Store != "" {
		os.RemoveAll(cfg.Store)
	}
}

// prepare fills the warm stores before timing: for each, one cold learn
// and then one warm learn, both checked against the golden.
func (r *runner) prepare(ctx context.Context) error {
	for _, seed := range r.warmSeeds {
		for i := 0; i < 2; i++ {
			cfg := r.config(seed, workers)
			opts, err := cfg.Options()
			if err != nil {
				return err
			}
			res, err := lab.Run(ctx, r.w.target, opts...)
			if err != nil {
				return fmt.Errorf("preparing the warm store of seed %d: %w", seed, err)
			}
			if !r.check(res) {
				return fmt.Errorf("preparing the warm store of seed %d: learn %d did not match the golden", seed, i+1)
			}
		}
	}
	return nil
}

// check compares a learn's outcome with the golden and explains any
// failure on standard error: a nondeterminism halt, or drift with its
// shortest witness.
func (r *runner) check(res *lab.Result) bool {
	if res.Nondet != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: nondeterminism halt: %v\n", r.w.name, res.Nondet)
		return false
	}
	return r.checkModel(res.Machine)
}

// checkModel compares a learned machine with the golden.
func (r *runner) checkModel(m *automata.Mealy) bool {
	drift, err := analysis.CompareGolden(analysis.NewModel(r.w.target, m), r.golden, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.w.name, err)
		return false
	}
	if drift != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s", r.w.name, drift)
		return false
	}
	return true
}

// sample is what one untraced learn measured.
type sample struct {
	setup, learn, cpu time.Duration
	allocs, bytes     uint64
	queries, symbols  int64
}

// learnOnce runs one untraced learn: NewExperiment, Learn, Close. CPU
// time counts this process and the adapter subprocesses Close reaps;
// allocations count this process only.
func (r *runner) learnOnce(ctx context.Context, seed int64, nworkers int) (sample, bool) {
	cfg := r.config(seed, nworkers)
	defer r.dropStore(cfg)
	opts, err := cfg.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return sample{}, false
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	exp, err := lab.NewExperiment(r.w.target, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up: %v\n", r.w.name, seed, err)
		return sample{}, false
	}
	t1 := time.Now()
	res, err := exp.Learn(ctx)
	t2 := time.Now()
	cerr := exp.Close()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: learn: %v\n", r.w.name, seed, err)
		return sample{}, false
	}
	s := sample{
		setup: t1.Sub(t0), learn: t2.Sub(t1), cpu: cpu1 - cpu0,
		allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		queries: res.Stats.Queries, symbols: res.Stats.Symbols,
	}
	if !r.check(res) {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: no match for golden %s\n", r.w.name, seed, r.w.golden)
		return s, false
	}
	return s, true
}

// setupOnly times one NewExperiment and releases the experiment.
func (r *runner) setupOnly(seed int64) (time.Duration, error) {
	cfg := r.config(seed, workers)
	defer r.dropStore(cfg)
	opts, err := cfg.Options()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	exp, err := lab.NewExperiment(r.w.target, opts...)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, exp.Close()
}

// setupSamples is how many set-ups a run times before its learns: enough
// for a steady median even when a run fits only one or two learns.
const setupSamples = 31

// timed is the untraced closed loop that gives the end-to-end metrics.
func (r *runner) timed(ctx context.Context, d time.Duration) result {
	var res result
	var setups []time.Duration
	for i := 0; i < setupSamples; i++ {
		s, err := r.setupOnly(r.nextSeed())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			res.Attempted++
			res.Failed++
			continue
		}
		setups = append(setups, s)
	}
	resetPeakRSS()
	var samples []sample
	closedLoop(d, func() {
		s, ok := r.learnOnce(ctx, r.nextSeed(), workers)
		res.Attempted++
		if !ok {
			res.Failed++
		}
		if s.learn > 0 {
			samples = append(samples, s)
			setups = append(setups, s.setup)
		}
	})
	res.Correct = res.Failed == 0 && len(samples) > 0

	pick := func(f func(sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	learns := pick(func(s sample) float64 { return s.learn.Seconds() })
	fmt.Printf("%s: %d learns attempted, %d failed (learns_failed_frac %.4g)\n",
		r.w.name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	res.add("setup_s", medianF(durations(setups)), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	res.add("learn_s", medianF(learns), "s", fmt.Sprintf("median of %d learns", len(learns)))
	// Costs per model are totals over the run's learns divided by their
	// number, so every seed of the run counts, not only the middle one.
	res.add("cpu_s", mean(pick(func(s sample) float64 { return s.cpu.Seconds() })), "s", "per model, subprocesses included")
	res.add("allocs", mean(pick(func(s sample) float64 { return float64(s.allocs) })), "count", "per model, engine process")
	res.add("alloc_mb", mean(pick(func(s sample) float64 { return float64(s.bytes) / 1e6 })), "MB", "per model, engine process")
	res.add("rss_peak_mb", peakRSSMB(), "MB", "VmHWM over the learns")
	if p, v, rank, ok := tail(learns); ok {
		fmt.Printf("  %-32s %14.6g %-6s p%.0f: rank %d of %d, 10 beyond\n", "learn_s_tail", v, "s", p, rank, len(learns))
	} else {
		fmt.Printf("  %-32s omitted: %d learns, fewer than 11\n", "learn_s_tail", len(learns))
	}
	fmt.Printf("  %-32s %14.6g %-6s per model\n", "live_queries",
		medianF(pick(func(s sample) float64 { return float64(s.queries) })), "count")
	fmt.Printf("  %-32s %14.6g %-6s per model\n", "live_symbols",
		medianF(pick(func(s sample) float64 { return float64(s.symbols) })), "count")
	return res
}

// cpuTime is user plus system time of this process and its reaped
// children.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
