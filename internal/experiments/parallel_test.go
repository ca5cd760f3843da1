package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices: every trial index is visited exactly once
// for any worker count, including counts above the trial count, and the
// zero value resolves to GOMAXPROCS.
func TestForEachCoversAllIndices(t *testing.T) {
	if got, want := (Options{}).TrialWidth(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers 0 resolves to width %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Options{Workers: -2}).TrialWidth(); got != 1 {
		t.Errorf("Workers -2 resolves to width %d, want 1 (sequential)", got)
	}
	const n = 37
	for _, w := range []int{0, 1, 2, 8, 100} {
		hits := make([]int32, n)
		Options{Workers: w}.forEach(n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: trial %d ran %d times", w, i, h)
			}
		}
	}
}

// TestParallelTrialsMatchSequential: the rendered output of a sweep
// figure must be byte-identical whether its trials run on one goroutine
// or eight. Each trial is an isolated Host, trials write only
// index-distinct slots, and tables are assembled afterwards in a fixed
// order — so worker count (and scheduling order) must not be observable.
func TestParallelTrialsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each figure twice; skipped in -short")
	}
	for _, id := range []string{"fig2a", "fig10", "fig12", "abl-cpu"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			seq := e.Run(Options{Scale: 0.12, Workers: 1}).String()
			par := e.Run(Options{Scale: 0.12, Workers: 8}).String()
			if seq != par {
				t.Errorf("%s output depends on worker count\n--- sequential ---\n%s\n--- workers=8 ---\n%s",
					id, seq, par)
			}
		})
	}
}

// TestRunAllPreservesOrderAndOutput: RunAll returns records in input
// order regardless of worker count, with results identical to direct
// sequential Run calls and plausible wall-clock measurements.
func TestRunAllPreservesOrderAndOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice; skipped in -short")
	}
	var entries []Entry
	for _, id := range []string{"fig1", "abl-period", "ext-httpd"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		entries = append(entries, e)
	}
	opts := Options{Scale: 0.12}
	recs := RunAll(entries, opts, 3)
	if len(recs) != len(entries) {
		t.Fatalf("RunAll returned %d records, want %d", len(recs), len(entries))
	}
	for i, r := range recs {
		if r.Entry.ID != entries[i].ID {
			t.Errorf("record %d = %s, want %s (input order lost)", i, r.Entry.ID, entries[i].ID)
		}
		if r.Result == nil || r.Result.ID != entries[i].ID {
			t.Errorf("record %d has no result for %s", i, entries[i].ID)
			continue
		}
		if r.Wall <= 0 {
			t.Errorf("%s: wall time %v not measured", r.Entry.ID, r.Wall)
		}
		want := entries[i].Run(opts).String()
		if got := r.Result.String(); got != want {
			t.Errorf("%s: RunAll output differs from direct run", r.Entry.ID)
		}
	}
}
