// Command perfbench is the end-to-end benchmark of the arv simulator. It
// builds against the source tree it sits in and measures what a user of
// the system waits for:
//
//   - scale: wall time per simulated second of a 16 384-container host
//     under limit churn (the scalebench host), timed in many short
//     simulated chunks;
//   - binding: the same measurement on a host whose churned quotas bind
//     below demand, so the scheduler's incremental tick repair runs;
//   - suite: wall time of one pass over the paper's 21 experiments, each
//     checked byte for byte against testdata/golden;
//   - fsd: latency of probes over HTTP against the fsd daemon while it
//     pumps the simulation, issued in the bursts of the ext-probe
//     experiment's probers, each timed from when it is issued (a
//     burst's first probe from the burst's due time if the burst before
//     it overran, else from when its prober woke for it).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (p10_ms, setup_s);
// with --trace 1 the same workload runs with per-layer instrumentation
// and reports the per-layer metrics instead (see layers.go). Each
// workload sets itself up several times and reports the median set-up
// time as setup_s, so work moved out of the measured loop into set-up
// shows up in it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed   uint64
	window time.Duration // length of the measured window
	trace  bool
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	setups    []time.Duration // wall time of each set-up repetition
	ops       []time.Duration // wall time of each measured operation
	attempted int64
	failed    int64
	problems  []string // correctness failures, reported on stderr

	// Over the measured window: its length, and the Go runtime's heap
	// allocations and GC pause time.
	wall    time.Duration
	mallocs uint64
	gcPause time.Duration

	lt *layerTrace // per-layer accounting, traced runs only
}

// fail records one correctness failure; only the first few are kept
// for the report.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"scale":   func(rc runConfig) (*outcome, error) { return runScale(rc, false) },
	"binding": func(rc runConfig) (*outcome, error) { return runScale(rc, true) },
	"suite":   runSuite,
	"fsd":     runFSD,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scale, binding, suite or fsd")
		seed    = flag.Uint64("seed", 1, "seed for the workload's inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run, 0 end-to-end metrics")
		cold    = flag.Bool("cold-pass", false, "run one checked suite pass and exit: the suite workload's set-up, run in a child process")
	)
	flag.Parse()
	if *cold {
		if err := coldPass(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cold pass: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload scale|binding|suite|fsd --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}

	o, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if len(o.ops) == 0 || len(o.setups) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", *name)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", *name, p)
	}

	rep := report{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	if rc.trace {
		if rep.Metrics, err = perLayerMetrics(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			os.Exit(1)
		}
	} else {
		rep.Metrics = endToEndMetrics(o)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d ops in %.1fs, %d attempted, %d failed\n",
		*name, rc.seed, len(o.ops), o.wall.Seconds(), o.attempted, o.failed)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEndMetrics are the numbers a user of the system sees: how long
// an operation takes and how long the workload took to set up. The
// operation time is the 10th percentile: on a machine shared with other
// tenants the upper part of the distribution moves with their load by
// more than a useful regression bound (the median of binding chunks by
// a quarter from run to run, its 10th percentile by a twentieth). Work
// that slows only some operations, such as garbage collection, shows in
// the per-layer traced_p50_ms, traced_p90_ms and allocs_per_op.
func endToEndMetrics(o *outcome) map[string]metric {
	return map[string]metric{
		"p10_ms":  {ms(quantile(o.ops, 0.10)), "ms"},
		"setup_s": {quantile(o.setups, 0.50).Seconds(), "s"},
	}
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs body as the measured window, recording the window's
// length and the Go runtime's heap and GC activity during it. A traced
// run also profiles the window's CPU use.
func measure(o *outcome, body func()) error {
	runtime.GC()
	if o.lt != nil {
		if err := pprof.StartCPUProfile(&o.lt.profile); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	o.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	o.mallocs = after.Mallocs - before.Mallocs
	o.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return nil
}

// repeatFor calls op until window has elapsed, and at least once.
func repeatFor(window time.Duration, op func()) {
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		op()
	}
}

// setupRepeated runs build reps times, recording each call's wall time,
// and returns the last result; earlier results are handed to discard
// so they can release what they hold before the next repetition.
func setupRepeated[T any](reps int, o *outcome, build func() (T, error), discard func(T)) (T, error) {
	var last T
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		o.setups = append(o.setups, time.Since(start))
		if i < reps-1 {
			discard(v)
		}
		last = v
	}
	return last, nil
}
