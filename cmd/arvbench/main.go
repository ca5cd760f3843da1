// Command arvbench regenerates the tables and figures of "Adaptive
// Resource Views for Containers" (HPDC '19) on the simulated substrate.
//
// Usage:
//
//	arvbench -list
//	arvbench -run fig6
//	arvbench -run all -scale 0.25
//	arvbench -run fig12 -csv
//	arvbench -run all -parallel 8 -json BENCH_all.json
//	arvbench -scalebench 64,256,1024,4096,16384 -scalebench-reps 3 -json BENCH_scale.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"arv/internal/experiments"
	"arv/internal/scalebench"
)

// benchReport is the -json output: one BENCH_*.json-style document per
// invocation, so successive runs can be diffed to track the cost of
// regenerating the paper.
type benchReport struct {
	Schema      string        `json:"schema"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Parallel    int           `json:"parallel"`
	Scale       float64       `json:"scale"`
	TotalWallMS float64       `json:"total_wall_ms"`
	Experiments []benchRecord `json:"experiments"`
}

type benchRecord struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
}

// scaleReport is the -json output of -scalebench: the committed
// BENCH_scale.json trajectory document (one record per container count).
type scaleReport struct {
	Schema     string              `json:"schema"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	SpanSec    float64             `json:"sim_span_seconds"`
	Runs       []scalebench.Result `json:"runs"`
}

// runScaleSuite executes the scale benchmark family for the given
// container counts and prints one summary line per run. Each point runs
// reps times and keeps the lowest-wall run: the minimum is the least
// noisy estimator for a deterministic single-threaded workload, which
// matters both for the committed BENCH_scale.json baseline and for the
// regression gate that compares fresh runs against it (see benchgate
// -scale-baseline). With jsonPath it also writes the scaleReport
// document.
func runScaleSuite(spec string, churn bool, interval, span time.Duration, reps int, jsonPath string) {
	report := scaleReport{
		Schema:     "arvbench/scale/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if reps < 1 {
		reps = 1
	}
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "arvbench: bad -scalebench container count %q\n", f)
			os.Exit(2)
		}
		cfg := scalebench.Defaults(n)
		cfg.Churn = churn
		if interval > 0 {
			cfg.ChurnInterval = interval
		}
		if span > 0 {
			cfg.Span = span
		}
		res := scalebench.Run(cfg)
		for r := 1; r < reps; r++ {
			if again := scalebench.Run(cfg); again.WallMS < res.WallMS {
				res = again
			}
		}
		report.SpanSec = res.SimSeconds
		report.Runs = append(report.Runs, res)
		fmt.Printf("scale n=%-5d churn=%-5v %10.1f ms wall  %12.0f ns/sim-s  %7d churns  %9d allocs (%.1f/tick)  %6d repair ticks\n",
			res.Containers, res.Churn, res.WallMS, res.NsPerSimSec, res.LimitChurns, res.Allocs, res.AllocsPerTick,
			res.TickRepairs)
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: encoding -json report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: writing %s: %v\n", jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", jsonPath)
	}
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment id to run (or 'all')")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized)")
		parallel = flag.Int("parallel", 0, "worker count for experiments and their trials (0 = experiments one at a time, trials across GOMAXPROCS; 1 = sequential)")
		jsonPath = flag.String("json", "", "write per-experiment wall-clock/allocation records to this file (BENCH_*.json shape)")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		md       = flag.Bool("md", false, "emit tables as Markdown instead of aligned text")
		verbose  = flag.Bool("v", false, "verbose notes")

		scaleBench    = flag.String("scalebench", "", "run the scale benchmark family for these container counts (e.g. 64,256,1024,4096,16384); -json then writes the BENCH_scale.json document")
		scaleChurn    = flag.Bool("scalebench-churn", true, "arm per-container limit churn in -scalebench runs")
		scaleInterval = flag.Duration("scalebench-interval", 0, "churn interval per container in -scalebench runs (0 = default 250ms)")
		scaleSpan     = flag.Duration("scalebench-span", 0, "simulated span per -scalebench run (0 = default 2s)")
		scaleReps     = flag.Int("scalebench-reps", 1, "repetitions per -scalebench point; the lowest-wall run is kept")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected -run/-scalebench work to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap allocation profile taken after the selected work to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("[wrote %s]\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "arvbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle heap stats so the profile reflects live + cumulative allocs
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "arvbench: writing heap profile: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("[wrote %s]\n", *memProfile)
		}()
	}

	if *scaleBench != "" {
		runScaleSuite(*scaleBench, *scaleChurn, *scaleInterval, *scaleSpan, *scaleReps, *jsonPath)
		return
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s  %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> (or -run all)")
		}
		return
	}

	opts := experiments.Options{Scale: *scale, Verbose: *verbose, Workers: *parallel}
	var entries []experiments.Entry
	if strings.EqualFold(*run, "all") {
		entries = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "arvbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	start := time.Now()
	recs := experiments.RunAll(entries, opts, *parallel)
	total := time.Since(start)

	for _, rec := range recs {
		res := rec.Result
		switch {
		case *csv:
			fmt.Printf("# %s: %s\n", res.ID, res.Title)
			for _, t := range res.Tables {
				fmt.Printf("## %s\n%s", t.Caption, t.CSV())
			}
			for _, n := range res.Notes {
				fmt.Printf("# note: %s\n", n)
			}
		case *md:
			fmt.Printf("## %s: %s\n\n", res.ID, res.Title)
			for _, t := range res.Tables {
				fmt.Println(t.Markdown())
			}
			for _, n := range res.Notes {
				fmt.Printf("> %s\n\n", n)
			}
		default:
			fmt.Println(res.String())
		}
		fmt.Printf("[%s completed in %v wall time]\n\n", rec.Entry.ID, rec.Wall.Round(time.Millisecond))
	}
	if len(recs) > 1 {
		fmt.Printf("[%d experiments completed in %v wall time, parallel=%d]\n",
			len(recs), total.Round(time.Millisecond), opts.TrialWidth())
	}

	if *jsonPath != "" {
		report := benchReport{
			Schema:      "arvbench/v1",
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Parallel:    opts.TrialWidth(),
			Scale:       *scale,
			TotalWallMS: float64(total) / float64(time.Millisecond),
		}
		for _, rec := range recs {
			report.Experiments = append(report.Experiments, benchRecord{
				ID:         rec.Entry.ID,
				Title:      rec.Entry.Title,
				WallMS:     float64(rec.Wall) / float64(time.Millisecond),
				AllocBytes: rec.AllocBytes,
				Allocs:     rec.Allocs,
			})
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: encoding -json report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "arvbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", *jsonPath)
	}
}
