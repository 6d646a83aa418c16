// Package benchparse parses `go test -bench` text output into structured
// results, so CI can track the perf trajectory (cmd/benchjson) and tests
// can assert on benchmark numbers without scraping text themselves.
package benchparse

import (
	"bufio"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line: its name (the -cpu suffix stripped), the
// iteration count, and every reported metric keyed by unit — "ns/op"
// always, plus whatever the benchmark added with ReportMetric.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the parsed stream: the environment header lines Go prints
// (goos/goarch/pkg/cpu) plus the GOMAXPROCS the benchmarks ran with, and
// the benchmarks in input order.
type File struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

// cpuSuffix is the trailing "-N" GOMAXPROCS tag on benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads a `go test -bench` stream, ignoring everything that is not
// a benchmark result or an environment header.
func Parse(r io.Reader) (*File, error) {
	f := &File{Env: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				if len(f.Benchmarks) == 0 {
					f.Env["gomaxprocs"] = gomaxprocs(line)
				}
				f.Benchmarks = append(f.Benchmarks, res)
			}
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				f.Env[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Env) == 0 {
		f.Env = nil
	}
	return f, nil
}

// Regression is one benchmark metric that got worse beyond the allowed
// ratio between two parsed runs.
type Regression struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Increase is the relative growth (New/Old - 1); 0.42 means +42%.
	Increase float64 `json:"increase"`
}

// Compare matches benchmarks of two parsed runs by name and reports every
// selected metric that increased by more than maxIncrease (0.30 = +30% —
// all tracked metrics are costs, so bigger is always worse). Only
// benchmarks whose name starts with one of the prefixes are compared (an
// empty prefix list compares all), and only the named metrics (an empty
// list compares ns/op). Benchmarks or metrics present on only one side
// are skipped: a renamed or new benchmark has no baseline to regress
// against.
func Compare(base, cur *File, prefixes, metrics []string, maxIncrease float64) []Regression {
	if len(metrics) == 0 {
		metrics = []string{"ns/op"}
	}
	selected := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var regs []Regression
	for _, b := range cur.Benchmarks {
		if !selected(b.Name) {
			continue
		}
		prev, ok := baseline[b.Name]
		if !ok {
			continue
		}
		for _, metric := range metrics {
			ov, ook := prev.Metrics[metric]
			nv, nok := b.Metrics[metric]
			if !ook || !nok || ov <= 0 {
				continue
			}
			if inc := nv/ov - 1; inc > maxIncrease {
				regs = append(regs, Regression{
					Name: b.Name, Metric: metric, Old: ov, New: nv, Increase: inc,
				})
			}
		}
	}
	return regs
}

// gomaxprocs returns the GOMAXPROCS a benchmark line ran with: the "-N"
// suffix of its name, which Go omits when GOMAXPROCS is 1.
func gomaxprocs(line string) string {
	if m := cpuSuffix.FindString(strings.Fields(line)[0]); m != "" {
		return m[1:]
	}
	return "1"
}

// parseLine parses one "BenchmarkX-8  N  v1 unit1  v2 unit2 ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false // e.g. "BenchmarkX ... FAIL" or other noise
	}
	res := Result{
		Name:       cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
