package experiments

import (
	"runtime"
	"time"

	"arv/internal/fanout"
)

// RunRecord is one experiment's outcome plus the measurements
// cmd/arvbench reports (and serializes with -json) to track the
// regeneration cost over time.
type RunRecord struct {
	Entry  Entry
	Result *Result
	// Wall is the experiment's wall-clock run time.
	Wall time.Duration
	// AllocBytes and Allocs are the heap allocation deltas observed
	// around the run. With concurrent experiments (or trial-level
	// fan-out) the deltas include whatever ran in the same window, so
	// they are exact when sequential and an upper bound otherwise.
	AllocBytes uint64
	Allocs     uint64
}

// RunAll executes the given experiments across a pool of up to workers
// goroutines (0 or 1 = sequential) and returns one record per entry, in
// input order. opts is passed to every driver verbatim — trial-level
// fan-out inside a driver is governed separately by opts.Workers, whose
// zero value spreads trials across GOMAXPROCS (arvbench's default runs
// experiments one at a time that way; -parallel N sets both to N).
//
// Each experiment builds its own Hosts and shares no simulation state
// with the others, so any interleaving produces byte-identical results;
// only the wall-clock measurements depend on the worker count.
func RunAll(entries []Entry, opts Options, workers int) []RunRecord {
	recs := make([]RunRecord, len(entries))
	fanout.Each(len(entries), workers, func(i int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := entries[i].Run(opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		recs[i] = RunRecord{
			Entry:      entries[i],
			Result:     res,
			Wall:       wall,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Allocs:     after.Mallocs - before.Mallocs,
		}
	})
	return recs
}
