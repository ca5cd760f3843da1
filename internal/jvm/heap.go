package jvm

import (
	"arv/internal/units"
)

// Heap models the Parallel Scavenge generational heap: a young
// generation (eden + survivors) and an old generation, kept at the 1:2
// ratio HotSpot maintains, with three size levels per §4.2 of the paper:
//
//   - used: bytes occupied by (live or dead) objects;
//   - committed: memory actually allocated to the JVM — this is what the
//     container's memory cgroup is charged for;
//   - reserved: the static MaxHeapSize ceiling fixed at launch.
//
// The paper's elastic heap adds a dynamic ceiling VirtualMax between
// committed and reserved, driven by effective memory, so the committed
// space can grow past an obsolete static limit or shrink under pressure
// without violating the adaptive sizing algorithm's invariants.
type Heap struct {
	// Reserved is MaxHeapSize: committed may never exceed it.
	Reserved units.Bytes
	// VirtualMax is the elastic ceiling; 0 means "not elastic" and the
	// effective ceiling is Reserved.
	VirtualMax units.Bytes
	// MinCommitted is the -Xms floor.
	MinCommitted units.Bytes
	// NaturalMax, when positive, bounds throughput-driven growth: it is
	// the committed size the workload's ergonomic sizing converges to
	// with an unbounded heap (benchmarks with small footprints stop
	// growing long before an enormous -Xmx). Live-data pressure may
	// still push committed past it.
	NaturalMax units.Bytes

	// Committed sizes per generation (young:old kept near 1:2).
	YoungCommitted units.Bytes
	OldCommitted   units.Bytes

	// Used bytes. EdenUsed cycles between 0 and eden capacity;
	// OldUsed grows by promotion and drops at major GCs.
	EdenUsed units.Bytes
	OldUsed  units.Bytes

	// LiveOld is the old-generation occupancy right after the most
	// recent major collection — the JVM's only trustworthy estimate of
	// live data. Sizing grows the heap for live data, never for the
	// garbage accumulating between majors (otherwise the full-GC
	// trigger would recede forever).
	LiveOld units.Bytes
}

// edenFrac is the eden share of the young generation (the rest is the
// two survivor spaces).
const edenFrac = 0.8

// Adaptive sizing tunables (PSAdaptiveSizePolicy, simplified). The
// policy pursues HotSpot's throughput goal: if the recent GC overhead —
// the fraction of wall time spent collecting — exceeds growOverhead the
// young generation grows; far below shrinkOverhead it shrinks. The old
// generation follows at the 1:2 ratio, never dropping below live data.
const (
	growOverhead   = 0.04
	shrinkOverhead = 0.01
	// oldHeadroom is the slack kept above live old-generation data.
	oldHeadroom = 1.2
)

// Committed returns the total committed heap.
func (h *Heap) Committed() units.Bytes { return h.YoungCommitted + h.OldCommitted }

// Used returns the total used heap.
func (h *Heap) Used() units.Bytes { return h.EdenUsed + h.OldUsed }

// EdenCapacity returns the allocation buffer size.
func (h *Heap) EdenCapacity() units.Bytes {
	return units.Bytes(float64(h.YoungCommitted) * edenFrac)
}

// Ceiling returns the currently effective committed-size limit:
// min(Reserved, VirtualMax) when elastic, Reserved otherwise.
func (h *Heap) Ceiling() units.Bytes {
	if h.VirtualMax > 0 {
		return units.MinBytes(h.Reserved, h.VirtualMax)
	}
	return h.Reserved
}

// InitCommitted sets the initial generation sizes for a total committed
// size of total, honoring the ceiling and the generation ratio.
func (h *Heap) InitCommitted(total units.Bytes) {
	total = units.ClampBytes(total, h.MinCommitted, h.Ceiling())
	h.YoungCommitted = total / 3
	h.OldCommitted = total - h.YoungCommitted
}

// sizeDelta is the committed-size change Resize decides on; positive
// means the JVM must charge its cgroup, negative means it uncharges.
type sizeDelta struct {
	Delta units.Bytes
	// NeedGC reports that the ceiling dropped below used data, so the
	// caller must run GCs to free space before the shrink can complete
	// (scenario 3 of §4.2).
	NeedGC bool
}

// Resize runs one round of the adaptive sizing algorithm after a GC.
// overhead is the smoothed fraction of recent wall time spent in GC;
// a high value grows the young generation (trading memory for
// throughput, as PS does to meet its throughput goal), a very low one
// shrinks it. The old generation keeps the 1:2 ratio where live data
// permits. Growth is incremental per round; the ceiling and -Xms floor
// always win. It returns the committed-size delta.
func (h *Heap) Resize(overhead float64) sizeDelta {
	young := h.YoungCommitted
	switch {
	case overhead > growOverhead:
		young = young + young/2 + 8*units.MiB
	case overhead < shrinkOverhead:
		young = young - young/10
	}

	// The 1:2 generation ratio implies committed = 3*young.
	desired := 3 * young
	if h.NaturalMax > 0 && desired > h.NaturalMax {
		desired = h.NaturalMax
	}
	// Live data always wins: the old generation must hold the
	// post-major live estimate with headroom (plus a minimal young
	// generation), which bounds committed from below regardless of the
	// appetite.
	if need := units.Bytes(float64(h.LiveOld)*oldHeadroom) + 8*units.MiB; desired < need {
		desired = need
	}
	desired = units.ClampBytes(desired, h.MinCommitted, h.Ceiling())
	// Hysteresis: ignore sub-5% shrinks.
	if before := h.Committed(); desired < before && desired > before-before/20 {
		return sizeDelta{}
	}
	return h.setCommitted(desired)
}

// SetVirtualMax applies a new elastic ceiling (effective memory) and
// reconciles committed space with it, covering the three shrink
// scenarios of §4.2:
//  1. ceiling above committed: only the max values change;
//  2. ceiling below committed but above used: committed shrinks;
//  3. ceiling below used: the caller must GC (NeedGC) and retry.
func (h *Heap) SetVirtualMax(vm units.Bytes) sizeDelta {
	if vm < h.MinCommitted {
		vm = h.MinCommitted
	}
	h.VirtualMax = vm
	ceiling := h.Ceiling()
	if h.Committed() <= ceiling {
		return sizeDelta{} // scenario 1
	}
	if h.Used() > ceiling {
		// Scenario 3: shrink what we can (down to used) and demand GC.
		d := h.setCommitted(units.MaxBytes(h.Used(), h.MinCommitted))
		d.NeedGC = true
		return d
	}
	// Scenario 2.
	return h.setCommitted(ceiling)
}

// setCommitted moves total committed to target. The 1:2 young:old ratio
// holds while it can, but live old-generation data takes precedence: the
// old generation grows past the ratio (squeezing the young generation to
// its floor) before the heap is declared full, exactly as PS ergonomics
// let a tenured-heavy application consume most of the heap.
func (h *Heap) setCommitted(target units.Bytes) sizeDelta {
	before := h.Committed()
	minYoung := units.MaxBytes(h.EdenUsed+h.EdenUsed/4, 2*units.MiB)

	old := target - target/3
	if want := h.OldUsed + 8*units.MiB; old < want {
		old = units.MinBytes(want, target-minYoung)
	}
	young := target - old
	if young < minYoung {
		young = minYoung
		old = target - young
	}
	if old < 0 {
		old = 0
	}
	h.YoungCommitted = young
	h.OldCommitted = old
	return sizeDelta{Delta: h.Committed() - before}
}
