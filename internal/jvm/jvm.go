// Package jvm models the HotSpot JVM at the granularity the paper's two
// case studies need: mutator threads that burn CPU and allocate into a
// generational Parallel Scavenge heap; stop-the-world minor and major
// collections executed by a wake-on-demand GC thread pool fed from a
// central task queue; HotSpot's adaptive heap sizing; the JDK 8/9/10
// container-awareness policies; and the paper's adaptive policy (GC
// parallelism from effective CPU, §4.1) with the elastic heap
// (VirtualMax from effective memory, §4.2).
//
// Mutator and GC threads are real tasks in the simulated CFS scheduler,
// so contention with co-located containers, bandwidth throttling, and
// over-threading penalties all emerge from the substrate rather than
// from closed-form formulas. Heap-committed changes charge the
// container's memory cgroup, so hard limits, kswapd, and swap thrash
// behave as they do in the paper's measurements.
package jvm

import (
	"fmt"
	"time"

	"arv/internal/cfs"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/units"
)

// Oversubscription sensitivities of the two thread classes (see
// internal/cfs): GC workers synchronize via the task queue and the
// termination protocol, so time-slicing hurts them disproportionately;
// mutators are mostly independent.
const (
	mutatorGamma  = 0.15
	gcWorkerGamma = 0.85
)

// GC cost-model constants (CPU cost of collection work).
const (
	// minorCostPerByte is the copying cost of scanning and evacuating
	// live young-generation bytes (~2 CPU-seconds per GiB).
	minorCostPerByte = 2.0 / float64(units.GiB)
	// majorCostPerByte is the mark-sweep-compact cost per used
	// old-generation byte.
	majorCostPerByte = 2.5 / float64(units.GiB)
	// minorFixed / majorFixed are per-collection fixed costs.
	minorFixed units.CPUSeconds = 0.003
	majorFixed units.CPUSeconds = 0.010
	// wakeCostPerThread is the per-activated-GC-thread coordination
	// cost (wakeup, task stealing, termination protocol).
	wakeCostPerThread units.CPUSeconds = 0.0005
)

// Workload describes a Java benchmark as the allocation/compute profile
// the JVM model executes. Profiles for DaCapo, SPECjvm2008, HiBench, and
// the paper's §5.3 micro-benchmark live in internal/workloads.
type Workload struct {
	Name string
	// TotalWork is the mutator CPU time needed to finish the benchmark.
	TotalWork units.CPUSeconds
	// Threads is the number of mutator threads.
	Threads int
	// AllocPerCPUSec is the allocation rate per CPU-second of mutator
	// work.
	AllocPerCPUSec units.Bytes
	// LiveSet is the steady-state live data (old generation after a
	// major collection).
	LiveSet units.Bytes
	// SurviveFrac is the fraction of eden bytes that survive a minor
	// collection (and are promoted).
	SurviveFrac float64
	// SurvivorCap bounds the absolute volume surviving one minor GC:
	// most workloads' inter-GC churn is bounded by their live-data
	// turnover, not proportional to an arbitrarily large eden. Zero
	// selects max(LiveSet/8, 4 MiB). Leak-shaped workloads
	// (LiveFracOfAllocated > 0) are never capped.
	SurvivorCap units.Bytes
	// GCSerialFrac is the serial (non-parallelizable) fraction of
	// collection work — the Amdahl limit on GC scalability.
	GCSerialFrac float64
	// JITFrac is the fraction of TotalWork spent by the JIT compiler
	// threads during warm-up (the paper's §2.2 notes the JVM sizes its
	// "parallel GC threads and JIT compiler threads" from the probed
	// CPU count). Zero selects 2%.
	JITFrac float64
	// LiveFracOfAllocated, when positive, makes the live set grow with
	// cumulative allocation: live = min(LiveSet,
	// LiveFracOfAllocated * allocated). The §5.3 micro-benchmark
	// (allocate 1 MiB, free 512 KiB per iteration) uses 0.5.
	LiveFracOfAllocated float64
	// MinHeap is the smallest heap the benchmark can run in; used by
	// experiments that set the heap to a multiple of the minimum.
	MinHeap units.Bytes
	// NaturalMax is the committed footprint the benchmark converges to
	// under ergonomic sizing with an unbounded maximum heap (see
	// Heap.NaturalMax). Zero means unbounded.
	NaturalMax units.Bytes
}

// Config selects the JVM variant under test.
type Config struct {
	Policy PolicyKind
	// OptGCThreads fixes the GC thread count for PolicyKind OptFixed.
	OptGCThreads int
	// Xms / Xmx override the initial and maximum heap (0 = ergonomics).
	Xms units.Bytes
	Xmx units.Bytes
	// ElasticHeap enables §4.2: VirtualMax follows effective memory.
	ElasticHeap bool
	// ElasticPeriod is how often the elastic heap re-reads effective
	// memory (default 10 s, as in the paper).
	ElasticPeriod time.Duration
}

// State is the JVM execution state.
type State int

const (
	StateNew State = iota
	StateMutating
	StateInGC
	StateFinished
	StateFailed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateMutating:
		return "mutating"
	case StateInGC:
		return "in-gc"
	case StateFinished:
		return "finished"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// FailReason says why a JVM failed.
type FailReason int

const (
	FailNone FailReason = iota
	// FailOOMError is a Java-level OutOfMemoryError: live data no
	// longer fits under the heap ceiling.
	FailOOMError
	// FailOOMKilled is the kernel OOM killer (cgroup exceeded limits
	// with exhausted swap).
	FailOOMKilled
)

// String returns the reason name.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "none"
	case FailOOMError:
		return "java.lang.OutOfMemoryError"
	case FailOOMKilled:
		return "oom-killed"
	default:
		return fmt.Sprintf("FailReason(%d)", int(r))
	}
}

// GCRecord captures one collection for traces like Fig. 8(b).
type GCRecord struct {
	At      sim.Time
	Major   bool
	Threads int
	Pause   time.Duration
}

// Stats accumulates the measurements the paper reports.
type Stats struct {
	Start, End sim.Time
	MinorGCs   int
	MajorGCs   int
	GCTime     time.Duration
	StallTime  time.Duration // swap-I/O stalls
	Allocated  units.Bytes
	GCs        []GCRecord
}

// ExecTime returns end-to-end wall time.
func (s *Stats) ExecTime() time.Duration { return time.Duration(s.End - s.Start) }

// JVM is one simulated Java process inside a container. It implements
// host.Program.
type JVM struct {
	Name string

	h   *host.Host
	ctr *container.Container
	w   Workload
	cfg Config

	heap Heap

	mutTasks []*cfs.Task
	gcTasks  []*cfs.Task
	jitTasks []*cfs.Task
	poolSize int // N: GC threads created at launch
	jitCount int // JIT compiler threads created at launch

	jitRemaining units.CPUSeconds

	state      State
	failReason FailReason

	// mutator progress (written by task callbacks, consumed in Poll)
	workDone     units.CPUSeconds
	pendingAlloc units.Bytes

	// in-flight GC
	gcMajor      bool
	gcActive     int // threads woken for this GC
	gcPar, gcSer units.CPUSeconds
	gcBegan      sim.Time

	// adaptive-sizing feedback
	lastGCEnd  sim.Time
	gcOverhead float64
	gcStall    time.Duration // swap stall within the current GC

	// swap stall
	stalled    bool
	stallUntil sim.Time

	elasticTimer sim.Timer

	Stats Stats
}

// New builds a JVM for workload w inside ctr. Call Start to launch it.
func New(h *host.Host, ctr *container.Container, w Workload, cfg Config) *JVM {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.SurviveFrac <= 0 {
		w.SurviveFrac = 0.1
	}
	if cfg.ElasticPeriod <= 0 {
		cfg.ElasticPeriod = 10 * time.Second
	}
	return &JVM{
		Name: fmt.Sprintf("%s/%s(%s)", ctr.Name, w.Name, cfg.Policy),
		h:    h,
		ctr:  ctr,
		w:    w,
		cfg:  cfg,
	}
}

// State returns the current execution state.
func (j *JVM) State() State { return j.state }

// FailReason returns why the JVM failed (FailNone otherwise).
func (j *JVM) FailReason() FailReason { return j.failReason }

// Done implements host.Program.
func (j *JVM) Done() bool { return j.state == StateFinished || j.state == StateFailed }

// Failed reports whether the JVM terminated abnormally.
func (j *JVM) Failed() bool { return j.state == StateFailed }

// Heap exposes the heap for inspection (Fig. 12 traces).
func (j *JVM) Heap() *Heap { return &j.heap }

// GCThreadPool returns N, the number of GC threads created at launch.
func (j *JVM) GCThreadPool() int { return j.poolSize }

// survivorsOf returns the bytes surviving a minor collection of an eden
// holding edenUsed bytes.
func (j *JVM) survivorsOf(edenUsed units.Bytes) units.Bytes {
	sv := units.Bytes(float64(edenUsed) * j.w.SurviveFrac)
	if j.w.LiveFracOfAllocated > 0 {
		return sv
	}
	cap := j.w.SurvivorCap
	if cap == 0 {
		cap = units.MaxBytes(j.w.LiveSet/8, 4*units.MiB)
	}
	return units.MinBytes(sv, cap)
}

// liveSet returns the current true live set: static for most profiles,
// allocation-driven for leak-shaped ones (LiveFracOfAllocated > 0).
func (j *JVM) liveSet() units.Bytes {
	if j.w.LiveFracOfAllocated > 0 {
		grown := units.Bytes(j.w.LiveFracOfAllocated * float64(j.Stats.Allocated))
		return units.MinBytes(j.w.LiveSet, grown)
	}
	return j.w.LiveSet
}

// Progress returns the fraction of mutator work completed.
func (j *JVM) Progress() float64 {
	if j.w.TotalWork <= 0 {
		return 1
	}
	return units.Clamp(float64(j.workDone)/float64(j.w.TotalWork), 0, 1)
}

// Start launches the JVM: ergonomics run (thread pool and heap sized per
// policy), the heap's initial committed space is charged to the cgroup,
// and mutator threads begin running. The JVM registers itself with the
// host for polling.
func (j *JVM) Start() {
	if j.state != StateNew {
		panic("jvm: Start called twice on " + j.Name)
	}
	hostCPUs := j.h.Sched.NCPU()
	hostMem := j.h.Mem.Total()

	// --- ergonomics: GC thread pool ---
	if j.cfg.Policy == OptFixed {
		j.poolSize = j.cfg.OptGCThreads
		if j.poolSize <= 0 {
			j.poolSize = 1
		}
	} else {
		j.poolSize = NParallelGCThreads(launchCPUs(j.cfg.Policy, j.ctr, hostCPUs))
	}

	// --- ergonomics: JIT compiler pool, from the same perceived CPU
	// count as the GC pool ---
	if j.cfg.Policy == OptFixed {
		j.jitCount = NJITThreads(j.cfg.OptGCThreads)
	} else {
		j.jitCount = NJITThreads(launchCPUs(j.cfg.Policy, j.ctr, hostCPUs))
	}
	jitFrac := j.w.JITFrac
	if jitFrac == 0 {
		jitFrac = 0.02
	}
	j.jitRemaining = units.CPUSeconds(float64(j.w.TotalWork) * jitFrac)

	// --- ergonomics: heap geometry ---
	j.heap.Reserved = j.cfg.Xmx
	if j.heap.Reserved == 0 {
		j.heap.Reserved = autoMaxHeap(j.cfg.Policy, j.ctr, hostMem)
	}
	if j.cfg.ElasticHeap {
		// §4.2: set the static reserve near physical memory and drive
		// the real ceiling through VirtualMax.
		if j.cfg.Xmx == 0 {
			j.heap.Reserved = hostMem
		}
		j.heap.VirtualMax = j.ctr.NS.EffectiveMemory()
	}
	j.heap.MinCommitted = j.cfg.Xms
	if j.heap.MinCommitted == 0 {
		j.heap.MinCommitted = units.MinBytes(64*units.MiB, j.heap.Reserved)
	}
	j.heap.NaturalMax = j.w.NaturalMax
	// Initial committed space: -Xms when given, otherwise a quarter of
	// the (perceived) maximum heap, as HotSpot ergonomics do.
	initial := j.heap.MinCommitted
	if j.cfg.Xms == 0 {
		initial = units.MaxBytes(initial, j.heap.Ceiling()/4)
	}
	j.heap.InitCommitted(initial)
	j.updateHotSet()
	stall, ok := j.h.Mem.Charge(j.ctr.Cgroup.Mem, j.heap.Committed(), j.h.Now())
	if !ok {
		j.fail(FailOOMKilled)
		return
	}

	// --- threads: one scheduler team per thread class ---
	g := j.ctr.Cgroup.CPU
	mut := j.h.Sched.NewTeam(g, mutatorGamma, j.mutatorTick)
	for i := 0; i < j.w.Threads; i++ {
		j.mutTasks = append(j.mutTasks, j.h.Sched.NewTeamTask(mut, fmt.Sprintf("%s-mut%d", j.w.Name, i)))
	}
	gc := j.h.Sched.NewTeam(g, gcWorkerGamma, j.gcTick)
	for i := 0; i < j.poolSize; i++ {
		j.gcTasks = append(j.gcTasks, j.h.Sched.NewTeamTask(gc, fmt.Sprintf("%s-gc%d", j.w.Name, i)))
	}

	// JIT compiler threads burn their warm-up budget alongside the
	// mutators, competing for the same cgroup allocation.
	jit := j.h.Sched.NewTeam(g, mutatorGamma, func(now sim.Time, n int, useful, raw units.CPUSeconds) {
		rem := j.jitRemaining
		for k := 0; k < n; k++ {
			rem -= useful
		}
		j.jitRemaining = rem
	})
	for i := 0; i < j.jitCount; i++ {
		t := j.h.Sched.NewTeamTask(jit, fmt.Sprintf("%s-jit%d", j.w.Name, i))
		j.jitTasks = append(j.jitTasks, t)
		j.h.Sched.SetRunnable(t, true)
	}

	j.state = StateMutating
	j.Stats.Start = j.h.Now()
	j.lastGCEnd = j.Stats.Start
	j.setMutatorsRunnable(true)
	if stall > 0 {
		j.beginStall(j.h.Now(), stall)
	}

	if j.cfg.ElasticHeap {
		j.elasticTimer = j.h.Clock.Every(j.cfg.ElasticPeriod, j.elasticPoll)
	}
	j.h.AddProgram(j)
}

// mutatorTick accumulates the n runnable mutators' work and allocation,
// one thread at a time; heavy reactions happen in Poll.
func (j *JVM) mutatorTick(now sim.Time, n int, useful, raw units.CPUSeconds) {
	work := j.workDone
	for k := 0; k < n; k++ {
		work += useful
	}
	j.workDone = work
	j.pendingAlloc += units.Bytes(n) * units.Bytes(float64(useful)*float64(j.w.AllocPerCPUSec))
}

// gcTick drains the GC work pools for the n runnable GC threads in pool
// order: the parallel pool first, then — only for pool thread 0 — the
// serial remainder (the Amdahl fraction). Other threads that are still
// runnable when the parallel pool empties spin until Poll parks them.
func (j *JVM) gcTick(now sim.Time, n int, useful, raw units.CPUSeconds) {
	par, ser := j.gcPar, j.gcSer
	master := j.gcTasks[0].Runnable()
	for k := 0; k < n; k++ {
		if par > 0 {
			par -= useful
		} else if k == 0 && master && ser > 0 {
			ser -= useful
		}
	}
	j.gcPar, j.gcSer = par, ser
}

// Poll implements host.Program: the JVM's control loop.
func (j *JVM) Poll(now sim.Time) {
	switch j.state {
	case StateMutating, StateInGC:
	default:
		return
	}

	// Swap stall in progress?
	if j.stalled {
		if now < j.stallUntil {
			return
		}
		j.stalled = false
		j.resumeAfterStall()
	}

	// Retire the JIT compiler pool once warm-up compilation is done.
	if j.jitTasks != nil && j.jitRemaining <= 0 {
		for _, t := range j.jitTasks {
			j.h.Sched.RemoveTask(t)
		}
		j.jitTasks = nil
	}

	if j.state == StateMutating {
		// Consume allocation produced since the last poll.
		if j.pendingAlloc > 0 {
			alloc := j.pendingAlloc
			j.pendingAlloc = 0
			j.Stats.Allocated += alloc
			j.heap.EdenUsed += alloc
			j.updateHotSet()
			if j.ctr.Cgroup.Mem.Swapped() > 0 {
				if st := j.h.Mem.Touch(j.ctr.Cgroup.Mem, alloc, now); st > 0 {
					j.beginStall(now, st)
					return
				}
			}
		}
		if j.workDone >= j.w.TotalWork {
			j.finish(now)
			return
		}
		if j.heap.EdenUsed >= j.heap.EdenCapacity() {
			j.startGC(now, false)
		}
		return
	}

	// StateInGC: check phase transitions and completion.
	if j.gcPar <= 0 && j.gcActive > 1 {
		// Parallel phase over: park all but thread 0 for the serial
		// remainder.
		for _, t := range j.gcTasks[1:] {
			if t.Runnable() {
				j.h.Sched.SetRunnable(t, false)
			}
		}
		j.gcActive = 1
	}
	if j.gcPar <= 0 && j.gcSer <= 0 {
		j.endGC(now)
	}
}

// activeGCThreads applies §4.1: N_gc = min(N, N_active, E_CPU), where
// the E_CPU term exists only for the adaptive policy and N_active only
// when the dynamic-threads heuristic is on.
func (j *JVM) activeGCThreads() int {
	n := j.poolSize
	if j.cfg.Policy.dynamicThreads() {
		if a := activeWorkers(j.poolSize, j.w.Threads, j.heap.Committed()); a < n {
			n = a
		}
	}
	if j.cfg.Policy == Adaptive {
		if e := j.ctr.NS.EffectiveCPU(); e > 0 && e < n {
			n = e
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (j *JVM) startGC(now sim.Time, major bool) {
	j.state = StateInGC
	j.gcMajor = major
	j.gcBegan = now
	j.setMutatorsRunnable(false)

	j.gcStall = 0
	var scanned units.Bytes
	var work units.CPUSeconds
	if major {
		scanned = j.heap.OldUsed
		work = majorFixed + units.CPUSeconds(majorCostPerByte*float64(scanned))
	} else {
		survivors := j.survivorsOf(j.heap.EdenUsed)
		scanned = survivors
		work = minorFixed + units.CPUSeconds(minorCostPerByte*float64(survivors))
	}

	n := j.activeGCThreads()
	j.gcActive = n
	work += wakeCostPerThread * units.CPUSeconds(n)
	j.gcSer = units.CPUSeconds(float64(work) * j.w.GCSerialFrac)
	j.gcPar = work - j.gcSer
	j.Stats.GCs = append(j.Stats.GCs, GCRecord{At: now, Major: major, Threads: n})

	for i := 0; i < n; i++ {
		j.h.Sched.SetRunnable(j.gcTasks[i], true)
	}

	// The collector walks live data; swapped pages fault back in.
	j.updateHotSet()
	if j.ctr.Cgroup.Mem.Swapped() > 0 {
		if st := j.h.Mem.Touch(j.ctr.Cgroup.Mem, scanned, now); st > 0 {
			j.beginStall(now, st)
		}
	}
}

func (j *JVM) endGC(now sim.Time) {
	for _, t := range j.gcTasks {
		if t.Runnable() {
			j.h.Sched.SetRunnable(t, false)
		}
	}
	pause := time.Duration(now - j.gcBegan)
	j.Stats.GCTime += pause
	if n := len(j.Stats.GCs); n > 0 {
		j.Stats.GCs[n-1].Pause = pause
	}

	if j.gcMajor {
		j.Stats.MajorGCs++
		// Mark-sweep-compact: garbage beyond the live set dies.
		if live := j.liveSet(); j.heap.OldUsed > live {
			j.heap.OldUsed = live
		}
		j.heap.LiveOld = j.heap.OldUsed
	} else {
		j.Stats.MinorGCs++
		survivors := j.survivorsOf(j.heap.EdenUsed)
		j.heap.EdenUsed = 0
		j.heap.OldUsed += survivors
	}

	// Adaptive sizing round, fed by the recent GC overhead (fraction
	// of wall time spent collecting, exponentially smoothed). Swap
	// stalls are excluded from the signal: growing the heap cannot fix
	// I/O-bound pauses, and feeding them back would spiral committed
	// space upward while the container thrashes.
	window := time.Duration(now - j.lastGCEnd)
	j.lastGCEnd = now
	sizingPause := pause - j.gcStall
	if sizingPause < 0 {
		sizingPause = 0
	}
	if window > 0 {
		j.gcOverhead = 0.5*j.gcOverhead + 0.5*float64(sizingPause)/float64(window)
	}
	if !j.applyDelta(now, j.heap.Resize(j.gcOverhead)) {
		return
	}

	// Old-generation pressure: promotion failure or a filling old gen
	// chains a major collection; if even a major cannot make room under
	// the ceiling, that is a Java OOM.
	oldFull := j.heap.OldUsed >= j.heap.OldCommitted-j.heap.OldCommitted/20
	if oldFull {
		if !j.gcMajor {
			j.startGC(now, true)
			return
		}
		// A major GC could not make room. Only the static MaxHeapSize
		// makes this a Java OOM; an elastic ceiling below live data is
		// handled by the §4.2 retry loop ("invoke GCs every 10s until
		// success") while effective memory recovers.
		if j.heap.Committed() >= j.heap.Reserved-units.MiB {
			j.fail(FailOOMError)
			return
		}
	}

	j.state = StateMutating
	if !j.stalled {
		j.setMutatorsRunnable(true)
	}
}

// elasticPoll is the §4.2 10-second loop: read effective memory, move
// VirtualMax, and reconcile the committed space (GCing if the ceiling
// fell below live data).
func (j *JVM) elasticPoll(now sim.Time) {
	if j.Done() {
		j.elasticTimer.Stop()
		return
	}
	d := j.heap.SetVirtualMax(j.ctr.NS.EffectiveMemory())
	if !j.applyDelta(now, d) {
		return
	}
	if d.NeedGC && j.state == StateMutating && !j.stalled {
		j.startGC(now, true)
	}
}

// applyDelta charges or uncharges the cgroup for a committed-size change
// and handles the resulting swap stall or OOM kill. It reports whether
// the JVM is still alive.
func (j *JVM) applyDelta(now sim.Time, d sizeDelta) bool {
	switch {
	case d.Delta > 0:
		stall, ok := j.h.Mem.Charge(j.ctr.Cgroup.Mem, d.Delta, now)
		if !ok {
			j.fail(FailOOMKilled)
			return false
		}
		if stall > 0 {
			j.beginStall(now, stall)
		}
	case d.Delta < 0:
		j.h.Mem.Uncharge(j.ctr.Cgroup.Mem, -d.Delta)
	}
	return true
}

func (j *JVM) beginStall(now sim.Time, d time.Duration) {
	j.Stats.StallTime += d
	if j.state == StateInGC {
		j.gcStall += d
	}
	if j.stalled {
		j.stallUntil += d
	} else {
		j.stalled = true
		j.stallUntil = now + d
	}
	// Everything blocks on the page fault.
	j.setMutatorsRunnable(false)
	for _, t := range j.gcTasks {
		if t.Runnable() {
			j.h.Sched.SetRunnable(t, false)
		}
	}
}

func (j *JVM) resumeAfterStall() {
	switch j.state {
	case StateMutating:
		j.setMutatorsRunnable(true)
	case StateInGC:
		n := j.gcActive
		if j.gcPar <= 0 {
			n = 1
		}
		for i := 0; i < n && i < len(j.gcTasks); i++ {
			j.h.Sched.SetRunnable(j.gcTasks[i], true)
		}
	}
}

// updateHotSet tells the memory controller which part of the heap the
// JVM actually touches: the young generation (allocation churn) plus the
// used old generation. Committed-but-empty old space is cold and can sit
// on swap harmlessly.
func (j *JVM) updateHotSet() {
	hot := j.heap.YoungCommitted + j.heap.OldUsed
	if c := j.heap.Committed(); hot > c {
		hot = c
	}
	j.ctr.Cgroup.Mem.Hot = hot
}

func (j *JVM) setMutatorsRunnable(r bool) {
	for _, t := range j.mutTasks {
		j.h.Sched.SetRunnable(t, r)
	}
}

func (j *JVM) finish(now sim.Time) {
	j.state = StateFinished
	j.Stats.End = now
	j.teardown()
}

func (j *JVM) fail(reason FailReason) {
	j.state = StateFailed
	j.failReason = reason
	j.Stats.End = j.h.Now()
	j.teardown()
}

func (j *JVM) teardown() {
	j.elasticTimer.Stop()
	for _, t := range j.mutTasks {
		j.h.Sched.RemoveTask(t)
	}
	for _, t := range j.gcTasks {
		j.h.Sched.RemoveTask(t)
	}
	for _, t := range j.jitTasks {
		j.h.Sched.RemoveTask(t)
	}
	j.jitTasks = nil
	// Release the heap (the OOM-killed path already freed the cgroup).
	// Heap statistics are left in place for post-mortem inspection.
	if j.failReason != FailOOMKilled {
		j.h.Mem.Uncharge(j.ctr.Cgroup.Mem, j.heap.Committed())
	}
}
