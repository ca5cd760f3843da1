// Incremental tick-allocation repair, the scheduler's tick protocol.
//
// Rebuilding every tick recomputes caps, both water-fill levels, and
// accounting for every group — O(groups) even when one group changed.
// Repair keeps the allocation as a memo, valid from NewScheduler on,
// tracks changes in a dirty set, and splits Tick into two regimes:
//
//   - quietTick: nothing dirty. Only the eager groups (active groups
//     with runnable team members, whose callbacks must fire every tick)
//     are walked, through tickGroup. All other active groups'
//     accounting is deferred: gSettled[i] records the tick through
//     which group i is settled, and settleTo replays the missing ticks
//     at the memoized rates on the next read or repair, or at the view
//     round's one pass over the active list (SettleWindows), after
//     which the round reads every CPU window by index. The replay
//     performs the same per-tick float additions a full walk would
//     have, so results are bit-identical, and costs nothing until
//     someone looks.
//
//   - repairTick: anything dirty. capOf recomputes the caps of dirty
//     groups only, then of affected parents, the top-level water
//     fill reruns over the incrementally maintained activeTop list only
//     when a top-level cap, weight, or membership moved, and only
//     parents whose grant or limits moved refill their children. One
//     ascending walk over the union of touched (dirty or rate-changed)
//     and eager groups follows: touched groups go through accountGroup,
//     the others through tickGroup. patchMembership merges the
//     active/eager list changes. Because the load contribution and
//     slack are ordered sums over the active leaves, any touched leaf
//     triggers an O(active) re-sum: repair is O(changes + tops +
//     active), not O(groups + teams). The first tick and a storm that
//     dirties every group are repairs like any other;
//     BenchmarkSchedulerRepairStorm measures the storm against
//     BenchmarkSchedulerRebuild.
//
// The regimes differ only in which groups they visit, not in what a
// visit computes. There is one cap computation (capOf), one per-group
// accounting body (accountGroup), one throttle rule (refreshThrottle,
// which accountGroup applies), and one ordered re-sum
// each for slack and load (recomputeUsedSlack, recomputeLoadContrib).
// The test oracle's rebuild is these functions applied to every group,
// in ascending order, so a repaired value is bit-identical to a rebuilt
// one because both come from the same operations on the same inputs.
//
// quietTick is kept apart from repairTick on purpose. Dispatching a
// quiet tick to repairTick is equivalent (the mirror tests pass) but
// pays for the dirty-set phases on every tick: BenchmarkSchedulerTick
// went from a median 266 to 347 ns/op and BenchmarkKernelDense from 1.78
// to 2.27 ms/op (2 vCPUs, six interleaved runs each). The choice
// between the two is made from observable state (an empty dirty set),
// and both sides run in the end-to-end benchmark: over 60 simulated
// seconds of the perfbench hosts from seed 1, warmup included, scale
// ticks 59 995 quiet and 5 repair ticks, and binding 46 426 quiet and
// 13 574 repair ticks.
//
// Every write that can move an allocation or a throttle state (a
// runnable flip, a shares, quota or cpuset write, a removal) marks one
// dirty set through noteAllocChange. The one early-out is a quota write
// whose old and new limits both sit above the group's cap, which moves
// nothing.
//
// One rule holds in both regimes and in the oracle: the allocation is
// fixed for the tick. A change a team callback makes during the walk (a
// block, a wake, a limit write) queues its mark like any other mutation,
// and the next tick repairs it; the throttle rule reads limits from
// gLim, which only a cap computation writes. The load contribution is
// re-summed from the tick-end runnable counts whenever a count moved
// during the walk.
//
// Equivalence with rebuilding every tick is not asserted, it is tested.
// The rebuild oracle (Tick with rebuildOracle set) is switched on only
// through export_test.go: repair_test.go and FuzzRepairMirror drive
// mirrored schedulers through op sequences and compare the full
// observable state every tick, and TestRepairMatchesEagerUnderFaultMix
// does the same for two whole hosts under the fault mix. Since the
// oracle shares the per-group body, these hold the memo machinery
// (which groups a tick visits, deferral and settling, the incremental
// fills) to the full walk; TestThrottleRulesExact pins the body itself
// with hand-computed values.
package cfs

import (
	"sort"
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// noteAllocChange records that g's allocation inputs changed by
// queueing g in the dirty set. A change a team callback makes during a
// tick's walk is queued the same way, so it takes effect on the next
// tick.
func (s *Scheduler) noteAllocChange(g *Group) {
	i := g.schedIdx
	a := &s.gAcct[i]
	if a.flags&acctAllocDirty != 0 {
		return
	}
	a.flags |= acctAllocDirty
	s.dirty = append(s.dirty, i)
}

// resetRepairState drops the dirty set when everything it tracked is
// re-derived anyway by the oracle's rebuild.
func (s *Scheduler) resetRepairState() {
	for _, i := range s.dirty {
		s.gAcct[i].flags &^= acctAllocDirty
	}
	s.dirty = s.dirty[:0]
	s.pendingTopFill = false
	s.pendingResum = false
}

// settle brings the group's deferred accounting current before a read.
// No-op for removed groups, whose accounting was settled when they were
// frozen.
func (g *Group) settle() {
	if g.removed {
		return
	}
	g.sched.settleLive(g.schedIdx)
}

// settleLive settles group i to the present: through the current tick,
// or through the previous tick when the current tick's walk has not
// reached i yet (its accrual for this tick happens when the walk gets
// there, exactly as a full walk would expose it).
func (s *Scheduler) settleLive(i int) {
	target := s.ticks
	if s.inWalk && i > s.walkPos {
		target--
	}
	s.settleTo(i, target)
}

// settleTo replays group i's deferred per-tick accounting deltas up to
// and including tick target: usage and window accrual at the memoized
// rate, and throttled time while the limit is binding. The replay
// repeats the identical per-tick additions a full walk performs, so
// the results are bit-identical. Deferred groups have no runnable team
// member, so there is no callback to replay.
func (s *Scheduler) settleTo(i int, target uint64) {
	done := s.gSettled[i]
	if done >= target {
		return
	}
	k := target - done
	s.gSettled[i] = target
	rate := s.gRate[i]
	if rate <= 0 {
		return
	}
	a := &s.gAcct[i]
	raw := units.CPUSeconds(rate * s.lastDtSec)
	// The same k additions in the same order as k dense ticks, carried
	// in registers and stored once.
	usage, window := a.usage, a.windowUsage
	for j := uint64(0); j < k; j++ {
		usage += raw
		window += raw
	}
	a.usage, a.windowUsage = usage, window
	if a.flags&acctDurBinding != 0 {
		a.throttledDur += time.Duration(k) * s.lastDt
	}
}

// SettleWindows brings every group that can hold deferred accrual
// current, so that TakeWindowAt can read windows by index without
// settling. The view round calls it once, before its reads. Those
// groups are exactly the ones on the active list. This rests on one
// invariant: active is exactly {i : gRate[i] > 0} (every tick's walk
// marks membership from the rate it leaves, patchMembership merges the
// marks, RemoveGroup patches the list), and a group whose rate is 0 has nothing to replay.
// Every path that changes a rate settles the group first, so an idle
// group left unsettled here is current. The groups it visits are
// counted once per pass in cfs.window_settles.
func (s *Scheduler) SettleWindows() {
	s.Trace.Add(telemetry.CtrWindowSettles, uint64(len(s.active)))
	for _, i := range s.active {
		s.settleLive(i)
	}
}

// TakeWindowAt returns the raw CPU time group i (its index in Groups())
// consumed since the previous take, and resets the window:
// sys_namespace reads this once per update period (the u_i term of
// Algorithm 1). It does not settle, so it is valid only after
// SettleWindows in the same round, before the next Tick.
func (s *Scheduler) TakeWindowAt(i int) units.CPUSeconds {
	a := &s.gAcct[i]
	u := a.windowUsage
	a.windowUsage = 0
	return u
}

// quietTick is the steady-state tick: nothing is dirty, so only the
// eager groups (whose team callbacks must fire) are walked, in
// ascending slot order. All other accounting is deferred to settleTo.
// A callback's mark lands in the dirty set, not in eagerIdx, so the walk
// visits each group once.
func (s *Scheduler) quietTick(now sim.Time, dt time.Duration, dtSec float64) {
	s.runnableMoved = false
	s.inWalk = true
	for _, i := range s.eagerIdx {
		s.walkPos = i
		// Stamp before the walk body: tickGroup accrues this tick
		// eagerly, and its team callbacks may trigger settles of this
		// very group (e.g. a self-block).
		s.gSettled[i] = s.ticks
		s.tickGroup(now, i, s.groups[i], dt, dtSec)
	}
	s.inWalk = false
	if s.runnableMoved {
		s.recomputeLoadContrib()
	}
}

// repairTick recomputes the allocation for the dirty groups only and
// advances this tick's accounting for every group the recompute (or a
// team callback obligation) touches.
func (s *Scheduler) repairTick(now sim.Time, dt time.Duration, dtSec float64) {
	prev := s.ticks - 1
	sort.Ints(s.dirty)
	// This tick repairs the dirty set as it stands now. Marks that team
	// callbacks make during the walk are appended past it and kept for
	// the next tick.
	dirty := s.dirty
	s.repairChanged = s.repairChanged[:0]
	topFill := s.pendingTopFill
	s.pendingTopFill = false

	// Phase 1: recompute dirty caps (leaves, then affected parents in
	// ascending order, so parent sums see fresh child caps) and queue
	// child refills. Any dirty top-level group can reweight or re-cap
	// the top fill; so can a parent whose summed cap moved.
	parents := s.repairParents[:0]
	s.topAdds = s.topAdds[:0]
	s.topRemoved = false
	for _, i := range dirty {
		g := s.groups[i]
		a := &s.gAcct[i]
		// Consume the mark now: a re-mark from a team callback later
		// this tick must enqueue a fresh repair.
		a.flags &^= acctAllocDirty
		s.settleTo(i, prev)
		if g.parent == nil {
			topFill = true
		}
		if len(g.children) > 0 {
			if a.flags&acctRefill == 0 {
				a.flags |= acctRefill
				parents = append(parents, i)
			}
			continue
		}
		s.gCap[i], s.gLim[i] = s.capOf(g)
		if g.parent != nil {
			p := g.parent.schedIdx
			pa := &s.gAcct[p]
			if pa.flags&acctRefill == 0 {
				pa.flags |= acctRefill
				parents = append(parents, p)
			}
		} else {
			s.noteTopMembership(i)
		}
	}
	sort.Ints(parents)
	for _, p := range parents {
		g := s.groups[p]
		s.settleTo(p, prev)
		old := s.gCap[p]
		s.gCap[p], s.gLim[p] = s.capOf(g)
		if s.gCap[p] != old {
			topFill = true
		}
		s.noteTopMembership(p)
	}
	if len(s.topAdds) > 0 || s.topRemoved {
		if len(s.topAdds) > 1 {
			sort.Ints(s.topAdds)
		}
		s.activeTop, s.topBuf = mergeIdx(s.activeTop, s.topAdds, s.gAcct, acctTop, s.topBuf)
		topFill = true
	}

	// Phase 2: rerun the top-level water fill when needed. The fill is
	// global — a local cap change can move many rates — so every
	// participant's old rate is diffed to find the changed set.
	if topFill {
		old := s.repairOld[:0]
		for _, i := range s.activeTop {
			s.settleTo(i, prev)
			old = append(old, s.gRate[i])
			s.gRate[i] = 0
		}
		tops := append(s.scratchTop[:0], s.activeTop...)
		waterfill(s.groups, s.gCap, s.gRate, tops, float64(s.ncpu))
		s.scratchTop = tops[:0]
		for k, i := range s.activeTop {
			if s.gRate[i] != old[k] {
				s.repairChanged = append(s.repairChanged, i)
			}
		}
		s.repairOld = old
	}

	// Phase 3: refill the children of every queued or rate-changed
	// parent, in the same child order the rebuild fills. All children
	// of a refilled parent count as touched: the parent's limit or
	// grant moved, which can flip a child's throttle state without
	// moving the child's own rate.
	for _, i := range s.repairChanged {
		if len(s.groups[i].children) == 0 {
			continue
		}
		a := &s.gAcct[i]
		if a.flags&acctRefill == 0 {
			a.flags |= acctRefill
			parents = append(parents, i)
		}
	}
	sort.Ints(parents)
	for _, p := range parents {
		s.gAcct[p].flags &^= acctRefill
		g := s.groups[p]
		grant := s.gRate[p]
		childActive := s.scratchChild[:0]
		for _, c := range g.children {
			ci := c.schedIdx
			s.settleTo(ci, prev)
			s.gRate[ci] = 0
			if s.gCap[ci] > 0 {
				childActive = append(childActive, ci)
			}
			s.repairChanged = append(s.repairChanged, ci)
		}
		if grant > 0 {
			waterfill(s.groups, s.gCap, s.gRate, childActive, grant)
		}
		s.scratchChild = childActive[:0]
	}
	s.repairParents = parents[:0]

	// Phase 4: one ascending accounting walk over the union of touched
	// (dirty ∪ changed) and eager groups — the relative order the full
	// rebuild would process them in.
	changed := s.repairChanged
	sort.Ints(changed)
	resum := s.pendingResum
	s.pendingResum = false
	s.runnableMoved = false
	s.inWalk = true
	const none = int(^uint(0) >> 1)
	di, ci, ei := 0, 0, 0
	for {
		i := none
		if di < len(dirty) && dirty[di] < i {
			i = dirty[di]
		}
		if ci < len(changed) && changed[ci] < i {
			i = changed[ci]
		}
		if ei < len(s.eagerIdx) && s.eagerIdx[ei] < i {
			i = s.eagerIdx[ei]
		}
		if i == none {
			break
		}
		touched := false
		if di < len(dirty) && dirty[di] == i {
			di++
			touched = true
		}
		for ci < len(changed) && changed[ci] == i {
			ci++
			touched = true
		}
		if ei < len(s.eagerIdx) && s.eagerIdx[ei] == i {
			ei++
		}
		s.walkPos = i
		g := s.groups[i]
		if touched {
			if len(g.children) == 0 {
				resum = true
			}
			s.accountGroup(now, i, g, dt, dtSec)
			continue
		}
		// An eager group the repair left alone.
		s.gSettled[i] = s.ticks // before a callback can settle this group
		s.tickGroup(now, i, g, dt, dtSec)
	}
	s.inWalk = false

	s.patchMembership()
	if resum || s.runnableMoved {
		// A leaf's rate, runnable count, or throttle flag moved: the
		// slack and load contribution are ordered sums over the active
		// leaves, re-derived in full exactly as the rebuild derives them.
		s.recomputeUsedSlack()
		s.recomputeLoadContrib()
	}

	s.dirty = s.dirty[:copy(s.dirty, s.dirty[len(dirty):])]
	s.repairChanged = changed[:0]
}

// noteTopMembership records a top-level group entering or leaving the
// fill set after its cap crossed zero. A leaver's rate is zeroed here
// (the fill no longer visits it) and the group is queued as changed so
// the accounting walk retires it from the active set.
func (s *Scheduler) noteTopMembership(i int) {
	a := &s.gAcct[i]
	want := s.gCap[i] > 0
	if want == (a.flags&acctTop != 0) {
		return
	}
	a.setFlag(acctTop, want)
	if want {
		s.topAdds = append(s.topAdds, i)
		return
	}
	s.topRemoved = true
	if s.gRate[i] != 0 {
		s.gRate[i] = 0
		s.repairChanged = append(s.repairChanged, i)
	}
}

// accountGroup is the per-group tick body: it advances one group's
// accounting for this tick at its current rate (usage accrual, the
// throttle rule through refreshThrottle, the team callbacks) and queues
// its active/eager membership change for patchMembership. The rebuild
// runs it for every group; a repair, for each group it touched.
func (s *Scheduler) accountGroup(now sim.Time, i int, g *Group, dt time.Duration, dtSec float64) {
	rate := s.gRate[i]
	a := &s.gAcct[i]
	a.perTask, a.over = 0, 0
	s.gSettled[i] = s.ticks
	s.markActive(i, rate > 0)
	if rate <= 0 {
		a.setFlag(acctDurBinding, false)
		s.noteThrottle(now, i, g, false, 0)
		s.markEager(i, false)
		return
	}
	raw := units.CPUSeconds(rate * dtSec)
	a.usage += raw
	a.windowUsage += raw
	s.refreshThrottle(now, i, g, rate, dt)
	nr := g.runnable
	if nr == 0 {
		// A parent, whose children run the tasks (a leaf that just
		// gained its first child leaves the eager set here), or a leaf
		// whose tasks all blocked earlier in this tick's walk.
		s.markEager(i, false)
		return
	}
	perTask := rate / float64(nr)
	over := float64(nr)/rate - 1 // oversubscription excess
	if over < 0 {
		over = 0
	}
	a.perTask, a.over = perTask, over
	runTeams(now, g, perTask, over, dtSec)
	// Eager membership is evaluated after the team walk so a callback
	// that just blocked the last team member leaves the group deferred
	// (its accounting from here on is pure accrual, which settles).
	s.markEager(i, g.teamRunnable > 0)
}

// patchMembership merges the walk's queued active/eager membership
// changes into the sorted lists.
func (s *Scheduler) patchMembership() {
	if len(s.activeAdds) > 0 || s.activeRemoved {
		s.active, s.activeBuf = mergeIdx(s.active, s.activeAdds, s.gAcct, acctActive, s.activeBuf)
	}
	if len(s.eagerAdds) > 0 || s.eagerRemoved {
		s.eagerIdx, s.eagerBuf = mergeIdx(s.eagerIdx, s.eagerAdds, s.gAcct, acctEager, s.eagerBuf)
	}
	s.activeAdds = s.activeAdds[:0]
	s.eagerAdds = s.eagerAdds[:0]
	s.activeRemoved, s.eagerRemoved = false, false
}

// markActive / markEager update a group's membership bit and queue the
// list patch (ordered merge after the walk).
func (s *Scheduler) markActive(i int, want bool) {
	a := &s.gAcct[i]
	if want == (a.flags&acctActive != 0) {
		return
	}
	a.setFlag(acctActive, want)
	if want {
		s.activeAdds = append(s.activeAdds, i)
	} else {
		s.activeRemoved = true
	}
}

func (s *Scheduler) markEager(i int, want bool) {
	a := &s.gAcct[i]
	if want == (a.flags&acctEager != 0) {
		return
	}
	a.setFlag(acctEager, want)
	if want {
		s.eagerAdds = append(s.eagerAdds, i)
	} else {
		s.eagerRemoved = true
	}
}

// recomputeUsedSlack derives the slack from the active leaves' rates as
// an ascending ordered sum, so every tick regime produces the same bits.
// It clamps floating-point residue from the water fill: a 1e-15-CPU
// remainder is not slack, and Algorithm 1 branches on slack == 0.
func (s *Scheduler) recomputeUsedSlack() {
	used := 0.0
	for _, i := range s.active {
		if len(s.groups[i].children) > 0 {
			continue
		}
		used += s.gRate[i]
	}
	slack := float64(s.ncpu) - used
	if slack < 1e-6 {
		slack = 0
	}
	s.slackLast = slack
}

// mergeIdx rebuilds a sorted membership list: entries whose bit was
// cleared drop out, adds (sorted, bit already set, disjoint from old)
// merge in. Returns the new list and the old backing array as the next
// spare buffer — zero allocations once the buffers are warm.
func mergeIdx(old, adds []int, acct []groupAcct, bit uint16, buf []int) (out, spare []int) {
	out = buf[:0]
	j := 0
	for _, v := range old {
		for j < len(adds) && adds[j] < v {
			out = append(out, adds[j])
			j++
		}
		if acct[v].flags&bit != 0 {
			out = append(out, v)
		}
	}
	for ; j < len(adds); j++ {
		out = append(out, adds[j])
	}
	return out, old[:0]
}

// patchIdxList drops the removed slot from an index list and shifts the
// entries RemoveGroup's compaction moved down, preserving order.
func patchIdxList(list []int, removed int) []int {
	out := list[:0]
	for _, v := range list {
		switch {
		case v == removed:
		case v > removed:
			out = append(out, v-1)
		default:
			out = append(out, v)
		}
	}
	return out
}
