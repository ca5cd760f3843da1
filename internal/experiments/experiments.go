// Package experiments contains one driver per table and figure in the
// paper's evaluation (§2.2 motivation and §5), each reconstructing the
// published experimental setup on the simulated host and emitting the
// same rows/series the paper plots. cmd/arvbench and the root
// bench_test.go are thin wrappers over this package.
//
// Absolute numbers come from the simulation's cost model and will not
// match the authors' PowerEdge testbed; the shapes — who wins, by
// roughly what factor, where crossovers fall — are what each driver
// reproduces (see EXPERIMENTS.md for the side-by-side record).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"arv/internal/container"
	"arv/internal/fanout"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/texttable"
	"arv/internal/units"
)

// Options tunes a driver run.
type Options struct {
	// Scale multiplies workload sizes; 1.0 reproduces the full setup,
	// smaller values give quick/smoke runs (used by unit tests).
	// 0 means 1.0.
	Scale float64
	// Verbose adds explanatory notes to results.
	Verbose bool
	// Workers bounds how many of a driver's independent trials (each a
	// self-contained Host simulation) run concurrently. 0 means
	// runtime.GOMAXPROCS(0), 1 keeps trials sequential, and N > 1 means
	// N. Every simulation stays internally sequential and deterministic,
	// so results are byte-identical at any width.
	Workers int
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// TrialWidth is the number of goroutines a driver's trials fan out
// across: Workers, GOMAXPROCS when Workers is 0, and 1 (sequential)
// when Workers is negative.
func (o Options) TrialWidth() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Workers, 1)
}

// forEach runs n independent trials across o.TrialWidth() goroutines
// (fanout.Each). Each trial must be self-contained — build its own
// Host, touch no state shared with other trials — and publish its
// outcome only to index-distinct slots, so the caller can assemble
// tables in deterministic trial order afterwards and the rendered
// output is byte-identical at any width.
func (o Options) forEach(n int, trial func(i int)) {
	fanout.Each(n, o.TrialWidth(), trial)
}

// Result is a regenerated figure or table.
type Result struct {
	ID     string
	Title  string
	Tables []*texttable.Table
	Notes  []string
}

// String renders the result for a terminal.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	for _, n := range r.Notes {
		s += "\nnote: " + n + "\n"
	}
	return s
}

// Entry is a registered experiment.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) *Result
}

var registry = make(map[string]Entry)

func register(id, title string, run func(Options) *Result) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate experiment id " + id)
	}
	registry[id] = Entry{ID: id, Title: title, Run: run}
}

// All returns the registered experiments sorted by ID.
func All() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Entry, bool) {
	e, ok := registry[id]
	return e, ok
}

// --- shared setup helpers ---

// paperHost builds the paper's testbed: dual 10-core Xeon (20 cores),
// 128 GB RAM (§5.1).
func paperHost(tick time.Duration) *host.Host {
	return host.New(host.Config{
		CPUs:   20,
		Memory: 128 * units.GiB,
		Tick:   tick,
		Seed:   1,
	})
}

// launchJVM creates a container from spec, execs into it, and starts a
// JVM with the workload and config. When several containers co-run,
// prefer createContainers + startJVM so every container's cgroup exists
// before the first JVM launches (otherwise the first container's
// effective CPU is initialized against an empty host, as its share-based
// lower bound is computed over the containers existing at the time).
func launchJVM(h *host.Host, spec container.Spec, w jvm.Workload, cfg jvm.Config) *jvm.JVM {
	ctr := h.Runtime.Create(spec)
	ctr.Exec("java " + w.Name)
	return startJVM(h, ctr, w, cfg)
}

// createContainers creates (and execs into) one container per spec.
func createContainers(h *host.Host, specs []container.Spec) []*container.Container {
	ctrs := make([]*container.Container, len(specs))
	for i, spec := range specs {
		ctrs[i] = h.Runtime.Create(spec)
		ctrs[i].Exec("app")
	}
	return ctrs
}

// startJVM starts a JVM in an existing container.
func startJVM(h *host.Host, ctr *container.Container, w jvm.Workload, cfg jvm.Config) *jvm.JVM {
	j := jvm.New(h, ctr, w, cfg)
	j.Start()
	return j
}

// scaleWorkload shrinks a JVM workload for smoke runs.
func scaleWorkload(w jvm.Workload, s float64) jvm.Workload {
	w.TotalWork = units.CPUSeconds(float64(w.TotalWork) * s)
	return w
}

// avgExec returns the mean execution time of a set of JVMs; failed runs
// are excluded and reported through failures.
func avgExec(jvms []*jvm.JVM) (avg time.Duration, failures int) {
	var total time.Duration
	n := 0
	for _, j := range jvms {
		if j.Failed() {
			failures++
			continue
		}
		total += j.Stats.ExecTime()
		n++
	}
	if n == 0 {
		return 0, failures
	}
	return total / time.Duration(n), failures
}

// avgGC returns the mean GC time.
func avgGC(jvms []*jvm.JVM) time.Duration {
	var total time.Duration
	n := 0
	for _, j := range jvms {
		if j.Failed() {
			continue
		}
		total += j.Stats.GCTime
		n++
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// ratio formats a/b with "fail"/"inf" handling for the normalized
// columns of the paper's figures.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", float64(a)/float64(b))
}

// secs renders a duration as seconds with millisecond resolution.
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// equalShareSpecs builds n identical container specs with equal shares
// and the given gamma.
func equalShareSpecs(n int, gamma float64) []container.Spec {
	specs := make([]container.Spec, n)
	for i := range specs {
		specs[i] = container.Spec{Name: fmt.Sprintf("c%d", i), Gamma: gamma}
	}
	return specs
}

// gammaDaCapo is the oversubscription sensitivity used for the Java
// workloads (GC and mutator threads synchronize via safepoints and the
// GC task queue).
const gammaDaCapo = 0.5
