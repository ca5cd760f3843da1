// Command benchgate enforces performance budgets as gates rather than
// diffs. It has two modes:
//
// Allocation mode (the default) scans `go test -bench -benchmem` output,
// selects result lines whose name matches -match, and fails if any
// reports more than -max-allocs allocs/op. Zero matching benchmarks is
// also a failure, so a renamed benchmark cannot silently disarm the
// gate.
//
//	go test -run xxx -bench ScaleSteady -benchmem -benchtime 50x . > out.txt
//	go run ./internal/tools/benchgate -match ScaleSteady -max-allocs 0 out.txt
//
// Regression mode (-scale-baseline) compares freshly generated
// BENCH_scale.json documents against baseline ones. Each side is a
// comma-separated list of documents (the runs of one build), and each
// side's figure for a row is its best: the lowest ns_per_sim_second and
// the lowest allocs_per_tick over its documents. For every container
// count in the comma-separated -scale-n list it finds that row on both
// sides and fails if the fresh ns_per_sim_second exceeds the baseline
// by more than -max-regress (a fraction; 0.25 = 25% slower), or if
// allocs_per_tick drifts above the baseline by more than
// -max-alloc-drift plus a small absolute slack (rows near zero would
// otherwise gate on noise). A row missing from any document is a
// failure for the same reason as above. `make bench-gate` runs the
// parent revision's and the working tree's builds interleaved, three
// runs each, and passes each side's three documents; it then gates the
// working tree's documents against the committed BENCH_scale.json with
// a looser wall budget.
//
//	go run ./internal/tools/benchgate -scale-baseline base1.json,base2.json,base3.json \
//		-scale-fresh work1.json,work2.json,work3.json -scale-n 1024,16384 -max-regress 0.25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// resultLine matches a benchmark result emitted with -benchmem, e.g.
//
//	BenchmarkScaleSteadyTick/n=64-8  50  1234 ns/op  0 B/op  0 allocs/op
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?(\d+)\s+allocs/op`)

// scaleDoc is the slice of BENCH_scale.json the regression gate reads:
// the container count keys the row; ns_per_sim_second and
// allocs_per_tick are the budgeted quantities.
type scaleDoc struct {
	Runs []scaleRow `json:"runs"`
}

// scaleRow is one gated BENCH_scale.json row.
type scaleRow struct {
	Containers    int     `json:"containers"`
	NsPerSimSec   float64 `json:"ns_per_sim_second"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
}

// loadScaleDoc reads and parses one BENCH_scale.json document.
func loadScaleDoc(path string) (scaleDoc, error) {
	var doc scaleDoc
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// row returns the run with the given container count.
func (d scaleDoc) row(path string, n int) (scaleRow, error) {
	for _, r := range d.Runs {
		if r.Containers == n {
			return r, nil
		}
	}
	return scaleRow{}, fmt.Errorf("%s: no run with containers=%d", path, n)
}

// bestRow returns the best of the row with container count n over the
// comma-separated documents in paths: the lowest ns_per_sim_second and
// the lowest allocs_per_tick, each taken on its own.
func bestRow(paths string, n int) (scaleRow, error) {
	var best scaleRow
	for i, path := range strings.Split(paths, ",") {
		doc, err := loadScaleDoc(path)
		if err != nil {
			return best, err
		}
		r, err := doc.row(path, n)
		if err != nil {
			return best, err
		}
		if i == 0 {
			best = r
			continue
		}
		best.NsPerSimSec = min(best.NsPerSimSec, r.NsPerSimSec)
		best.AllocsPerTick = min(best.AllocsPerTick, r.AllocsPerTick)
	}
	return best, nil
}

// allocSlack is the absolute allocs/tick headroom granted on top of the
// fractional -max-alloc-drift budget. Small-n rows sit well under one
// alloc per tick, where a pure ratio would turn scheduler-independent
// noise (timer ring growth, map rehashes) into gate failures.
const allocSlack = 0.5

// parseNList parses the comma-separated -scale-n value.
func parseNList(s string) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -scale-n entry %q", f)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

// gateScaleRegression is regression mode: fresh vs committed
// ns_per_sim_second and allocs_per_tick at each listed container count.
// All rows are checked before exiting so one run reports every breach.
func gateScaleRegression(baseline, fresh string, ns []int, maxRegress, maxAllocDrift float64) {
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, n := range ns {
		base, err := bestRow(baseline, n)
		if err != nil {
			fatal(err)
		}
		cur, err := bestRow(fresh, n)
		if err != nil {
			fatal(err)
		}
		if base.NsPerSimSec <= 0 {
			fatal(fmt.Errorf("%s: non-positive baseline ns_per_sim_second %.0f at containers=%d", baseline, base.NsPerSimSec, n))
		}
		ratio := cur.NsPerSimSec / base.NsPerSimSec
		if ratio > 1+maxRegress {
			failed = true
			fmt.Fprintf(os.Stderr, "benchgate: scale n=%d regressed: %.0f ns/sim-s vs baseline %.0f (%.0f%% slower, max %.0f%%)\n",
				n, cur.NsPerSimSec, base.NsPerSimSec, (ratio-1)*100, maxRegress*100)
		} else {
			fmt.Printf("benchgate: scale n=%d within budget: %.0f ns/sim-s vs baseline %.0f (%+.0f%%, max +%.0f%%)\n",
				n, cur.NsPerSimSec, base.NsPerSimSec, (ratio-1)*100, maxRegress*100)
		}
		allocMax := base.AllocsPerTick*(1+maxAllocDrift) + allocSlack
		if cur.AllocsPerTick > allocMax {
			failed = true
			fmt.Fprintf(os.Stderr, "benchgate: scale n=%d allocs/tick drifted: %.2f vs baseline %.2f (max %.2f)\n",
				n, cur.AllocsPerTick, base.AllocsPerTick, allocMax)
		} else {
			fmt.Printf("benchgate: scale n=%d allocs/tick within budget: %.2f vs baseline %.2f (max %.2f)\n",
				n, cur.AllocsPerTick, base.AllocsPerTick, allocMax)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func main() {
	var (
		match     = flag.String("match", "", "substring or regexp the benchmark name must match (required in allocation mode)")
		maxAllocs = flag.Int64("max-allocs", 0, "maximum permitted allocs/op")

		scaleBaseline = flag.String("scale-baseline", "", "comma-separated baseline BENCH_scale.json documents, best of them gated against; selects regression mode")
		scaleFresh    = flag.String("scale-fresh", "", "comma-separated fresh BENCH_scale.json documents, best of them gated (regression mode)")
		scaleN        = flag.String("scale-n", "1024", "comma-separated container counts whose rows are compared (regression mode)")
		maxRegress    = flag.Float64("max-regress", 0.25, "maximum permitted ns_per_sim_second regression as a fraction of baseline (regression mode)")
		maxAllocDrift = flag.Float64("max-alloc-drift", 0.25, "maximum permitted allocs_per_tick drift as a fraction of baseline, plus 0.5 allocs/tick absolute slack (regression mode)")
	)
	flag.Parse()
	if *scaleBaseline != "" {
		if *scaleFresh == "" {
			fmt.Fprintln(os.Stderr, "benchgate: -scale-baseline requires -scale-fresh")
			os.Exit(2)
		}
		ns, err := parseNList(*scaleN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		gateScaleRegression(*scaleBaseline, *scaleFresh, ns, *maxRegress, *maxAllocDrift)
		return
	}
	if *match == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -match is required")
		os.Exit(2)
	}
	nameRE, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -match: %v\n", err)
		os.Exit(2)
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}

	checked, failed := 0, 0
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil || !nameRE.MatchString(m[1]) {
			continue
		}
		allocs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		checked++
		if allocs > *maxAllocs {
			failed++
			fmt.Fprintf(os.Stderr, "benchgate: %s reports %d allocs/op (max %d)\n", m[1], allocs, *maxAllocs)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading input: %v\n", err)
		os.Exit(2)
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark matching %q found in input\n", *match)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within %d allocs/op\n", checked, *maxAllocs)
}
