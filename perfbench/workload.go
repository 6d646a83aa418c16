package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/learncfg"
)

// storeMode says how a workload's learns use the persistent query store.
type storeMode int

const (
	storeNone  storeMode = iota
	storeFresh           // a new, empty store directory per learn
	storeWarm            // one store, filled before timing by a cold and a warm learn
)

// workload is one learn configuration the benchmark runs in a closed
// loop: the next learn starts when the previous one returns.
type workload struct {
	name   string
	target string
	golden string // model file under internal/analysis/testdata
	store  storeMode
	// config returns the CLI-equivalent learn configuration for one
	// per-learn seed.
	config func(seed int64, refadapter string) learncfg.Config
	// exact reports whether two learns with the same seed and one worker
	// must make exactly the same live queries. Real sockets can turn a
	// late datagram into a silence, so the UDP workload is not exact.
	exact bool
}

// workers is the pool size of every workload: the machine the workloads
// were chosen on has two CPUs, and a CLI learn or daemon job is sized to
// its machine.
const workers = 2

// googleConfig is `learn -target google -workers 2 -conformance 2`.
func googleConfig(seed int64, _ string) learncfg.Config {
	cfg := learncfg.Default(learncfg.Defaults{})
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Conformance = 2
	return cfg
}

var workloads = []workload{
	{
		name: "cold-google", target: "google", golden: "google.json",
		store: storeFresh, config: googleConfig, exact: true,
	},
	// adapter-google is the only workload through internal/adapter: the
	// learns and query plan of cold-google, with every reset and symbol a
	// stdio round trip to a refadapter subprocess. BENCHMARK.json leaves
	// it out: with four processes switching about 34k times a learn on two
	// CPUs, its median learn time varied by 0.43 (IQR over median) across
	// ten 30-s runs, beyond any bound the benchmark may set. Run it by
	// name to read the adapter layer.
	{
		name: "adapter-google", target: "adapter", golden: "google.json",
		config: func(seed int64, refadapter string) learncfg.Config {
			cfg := googleConfig(seed, refadapter)
			cfg.AdapterCmd = fmt.Sprintf("%s -seed %d", refadapter, seed)
			return cfg
		},
		exact: true,
	},
	// udp-lossy-quiche is the only workload on loopback sockets, netem,
	// guard escalation and the AIMD window. BENCHMARK.json leaves it out:
	// a learn takes about 10 s, almost all of it timer waits whose length
	// follows scheduling delays, so one learn varies by 15-30% with the
	// same seed, and a run fits too few learns for a steady median. Run
	// it by name to read those layers.
	{
		name: "udp-lossy-quiche", target: "quiche", golden: "quiche.json",
		config: func(seed int64, _ string) learncfg.Config {
			cfg := learncfg.Default(learncfg.Defaults{})
			cfg.Seed = seed
			cfg.Workers = workers
			cfg.UDP = true
			cfg.Window = 2
			cfg.Loss = 0.02
			cfg.Perfect = true
			// The CLI's 100 warm-up words exist for targets whose state
			// leaks across connections; quiche has none, and on this link
			// they cost about 10 s of set-up per learn.
			cfg.Warmup = 0
			return cfg
		},
	},
	{
		name: "warm-google", target: "google", golden: "google.json",
		store: storeWarm, config: googleConfig, exact: true,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// goldenPath is where the workload's expected model lives in a checkout.
func (w workload) goldenPath(root string) string {
	return filepath.Join(root, "internal", "analysis", "testdata", w.golden)
}
