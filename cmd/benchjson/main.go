// Command benchjson converts `go test -bench` text output into the JSON
// the CI perf-trajectory artifact (BENCH_PR.json) wants — one entry per
// benchmark mapping its name to ns/op and every custom metric the
// benchmark reported (queries, votes, escalations, ...) — and compares
// two such JSON files so CI can gate on perf regressions against the
// previous run on main.
//
// Render (default):
//
//	go test -bench=. -benchtime=1x -run '^$' . | benchjson [-o BENCH_PR.json]
//
// Lines that are not benchmark results (headers, PASS/ok trailers) are
// ignored, so the raw `go test` stream can be piped in unfiltered. The
// output's env records Go's header lines, the GOMAXPROCS the benchmarks
// ran with (from their name suffix) and the CPU count of the machine
// rendering it (nproc), so run it where the benchmarks ran.
//
// Compare:
//
//	benchjson -compare BASELINE.json -in BENCH_PR.json \
//	    -match PooledLearning,LearnUnderLoss -metrics ns/op,queries \
//	    -max-increase 0.30
//
// exits 1 when any selected metric of any matched benchmark grew by more
// than -max-increase relative to the baseline. Benchmarks present on only
// one side are skipped (no baseline to regress against), so adding or
// renaming a benchmark never breaks the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/benchparse"
)

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	compare := flag.String("compare", "", "baseline JSON file: compare instead of rendering")
	in := flag.String("in", "", "current-run JSON file for -compare (default: parse bench text from stdin)")
	match := flag.String("match", "", "comma-separated benchmark-name prefixes to compare (default: all)")
	metrics := flag.String("metrics", "ns/op", "comma-separated metrics to compare")
	maxIncrease := flag.Float64("max-increase", 0.30, "largest tolerated relative growth per metric (0.30 = +30%)")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *in, *match, *metrics, *maxIncrease))
	}

	results, err := benchparse.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if results.Env == nil {
		results.Env = map[string]string{}
	}
	results.Env["nproc"] = strconv.Itoa(runtime.NumCPU())
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
}

// runCompare loads the baseline and current runs and reports regressions;
// its return value is the process exit code.
func runCompare(baselinePath, inPath, match, metrics string, maxIncrease float64) int {
	baseline, err := loadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	var current *benchparse.File
	if inPath != "" {
		if current, err = loadFile(inPath); err != nil {
			fatal(err)
		}
	} else if current, err = benchparse.Parse(os.Stdin); err != nil {
		fatal(err)
	}
	if len(baseline.Benchmarks) == 0 {
		// An empty or bootstrap baseline (e.g. the first run on a new cache
		// key) gates nothing; say so rather than silently passing.
		fmt.Println("benchjson: empty baseline, nothing to compare against")
		return 0
	}
	regs := benchparse.Compare(baseline, current, splitCSV(match), splitCSV(metrics), maxIncrease)
	if len(regs) == 0 {
		fmt.Printf("benchjson: no regression beyond +%.0f%% across %d baseline benchmarks\n",
			maxIncrease*100, len(baseline.Benchmarks))
		return 0
	}
	for _, r := range regs {
		fmt.Printf("benchjson: REGRESSION %s %s: %.6g -> %.6g (+%.1f%%, limit +%.0f%%)\n",
			r.Name, r.Metric, r.Old, r.New, r.Increase*100, maxIncrease*100)
	}
	return 1
}

func loadFile(path string) (*benchparse.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchparse.File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
