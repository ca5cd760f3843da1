// Package cfs simulates the Linux Completely Fair Scheduler at the level
// of detail the paper's Algorithm 1 depends on: per-cgroup share weights
// (cpu.shares), bandwidth limits (cfs_quota_us / cfs_period_us), CPU
// affinity masks (cpuset.cpus), work-conserving multiplexing of the
// remaining capacity, per-group usage accounting, and the host load
// average.
//
// The model is "fluid": once per simulation tick, the host's NCPU cores
// are divided among runnable tasks by weighted max-min fairness subject
// to (1) at most one CPU per task, (2) at most |cpuset| CPUs per group,
// (3) at most quota/period CPUs per group, with group weights given by
// cpu.shares. Capacity no group can use is given to others (work
// conservation); capacity nobody can use is the slack Algorithm 1 reads.
//
// Groups may be nested one level (a parent group containing child
// groups — the Kubernetes pod shape): capacity is water-filled among
// top-level entities first, then each parent's grant is water-filled
// among its children by their shares, with the parent's cpuset/quota
// capping the subtree. Following cgroup v2's "no internal processes"
// rule, a group with children cannot hold tasks.
//
// Oversubscription is not free: when a group runs more runnable tasks
// than the CPU it is allocated, each task's useful work is discounted by
// 1/(1+gamma*(r-1)) where r is the oversubscription ratio and gamma a
// per-group sensitivity. This reproduces the over-threading penalties the
// paper measures (Figs. 2a, 6, 7, 10) that a pure fluid model would hide.
//
// # Teams
//
// Programs see their progress through teams: tasks of one group that
// share a sensitivity and one tick callback. Every runnable task of a
// leaf gets the same share, so a team is called once per tick with its
// runnable count instead of once per member (see Team). Tasks created by
// NewTask have no callback.
//
// # Allocation memoization and hot-state layout
//
// The division of CPU among groups is a pure function of the scheduler's
// configuration (shares, quota, cpuset, group topology) and the runnable
// counts. The scheduler therefore keeps it as a memo that is valid from
// NewScheduler on: an empty scheduler's memo (no cap, no rate, all
// capacity slack) is exact, every mutating entry point (SetShares,
// SetQuota, SetCpuset, SetRunnable, task/group lifecycle) records the
// change, and the next Tick recomputes what it affects with the exact
// float operations a non-memoizing scheduler would run every tick — so
// results are bit-identical, just not recomputed when nothing changed.
//
// Per-group hot state lives in struct-of-arrays form on the Scheduler
// (gCap, gLim, gRate, gAcct), indexed by the group's slot in Groups().
// Slots are index-stable except across RemoveGroup, which compacts all
// arrays in step. Configuration fields on Group remain exported for
// reading; writing them directly bypasses the change record, so it is
// reserved for building fixtures before the first Tick (every group that
// can hold CPU then has a runnable task, so the first tick's repair
// reads the written fields) — mutate through the Scheduler setters
// otherwise.
//
// # Incremental repair
//
// The memo is maintained by dirty-set repair: mutators mark the touched
// group in a dirty set, and the next Tick recomputes caps, water fills,
// and accounting only for the dirty groups, the affected parents, and
// the top level — O(changes + tops) instead of O(groups). Accounting
// for quiet groups (active groups with no runnable team member) is
// deferred and settled on read, replaying the memoized per-tick deltas
// so every observable value stays bit-identical to rebuilding every
// tick. A change a team callback makes during a tick's walk takes effect
// on the next tick. A full rebuild every tick survives only as the test
// oracle repair is checked against. See repair.go and DESIGN.md §15.
package cfs

import (
	"fmt"
	"math"
	"slices"
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// DefaultShares is the cpu.shares value Linux assigns a new cgroup.
const DefaultShares = 1024

// Task is a schedulable entity (a thread). Tasks belong to exactly one
// Group, at most one Team, and are either runnable or blocked.
type Task struct {
	ID   int
	Name string

	group    *Group
	team     *Team
	runnable bool
	removed  bool
}

// Runnable reports whether the task is currently runnable.
func (t *Task) Runnable() bool { return t.runnable }

// TeamFunc is a team's tick callback: n members were runnable, each
// consumed raw CPU time, and useful is raw after the oversubscription
// discount. One call stands for n member calls with equal arguments.
type TeamFunc func(now sim.Time, n int, useful, raw units.CPUSeconds)

// Team is a set of tasks in one group that share an oversubscription
// sensitivity and one tick callback: a thread pool whose members do
// interchangeable work (JVM mutators, an OpenMP team). A team lives as
// long as its group; membership is fixed at task creation.
//
// After each tick in which its group has CPU, the group's teams take
// their turn in creation order, and each with a runnable member gets one
// call. The rates, share and discount are those computed at the start of
// the tick: a callback's block or wake of a member of its own team or an
// earlier team, or of a member in another group, changes allocation from
// the next tick. n is read live when the team's turn comes, so a block
// or wake of a member of a later team in the group shows in that team's
// n in the same tick. Whether a member woken in another group runs this
// tick depends on whether the tick visits that group, so callbacks must
// not rely on it.
//
// A callback's limit write (quota, cpuset, shares) is queued like any
// other change and takes effect from the next tick, whichever group it
// targets: the throttle rule reads each group's limit as of the cap
// computation, which precedes the walk.
type Team struct {
	group    *Group
	gamma    float64
	fn       TeamFunc
	runnable int // live runnable-member count (kept by SetRunnable)
}

// groupAcct is a group's per-tick hot state: the accounting accumulators
// the tick loop writes and the cached water-fill derivatives it reads.
// One slot per group, stored in a Scheduler-owned array parallel to
// Groups() so a steady-state tick walks a contiguous slab instead of
// chasing Group pointers.
type groupAcct struct {
	usage        units.CPUSeconds // total raw CPU time
	windowUsage  units.CPUSeconds // since the last TakeWindowAt
	throttledDur time.Duration    // wall time with the quota cap binding
	perTask      float64          // rate / runnable tasks (leaves; 0 when idle)
	over         float64          // oversubscription excess (leaves)
	flags        uint16
}

const (
	// acctThrottled: a bandwidth limit (the group's own, or its
	// parent's) capped the group's allocation in the most recent tick.
	acctThrottled uint16 = 1 << iota
	// acctDurBinding: the group's own limit is binding, so
	// throttledDur accrues every tick while the allocation holds.
	acctDurBinding
	// The remaining bits are incremental-repair state (repair.go).

	// acctAllocDirty: the group is queued in Scheduler.dirty for
	// allocation repair on the next tick.
	acctAllocDirty
	// acctActive: the group is a member of Scheduler.active.
	acctActive
	// acctEager: the group is a member of Scheduler.eagerIdx (active
	// with at least one runnable team member, so its accounting cannot
	// be deferred).
	acctEager
	// acctTop: the group is a member of Scheduler.activeTop (top-level
	// with a positive cap, i.e. a water-fill participant).
	acctTop
	// acctRefill: transient repair-phase mark — the parent's child fill
	// is queued for recomputation this tick.
	acctRefill
)

// Group is a scheduling control group (the cpu controller of a cgroup).
//
// The fields up to CpusetN are the group's hot header, 48 bytes: what a
// limit write (SetQuota, SetCpuset, SetShares) and ns_monitor's record
// of the group read. Kept together they span one or two cache lines
// wherever the allocator puts the group, instead of three, so a churn
// firing's first touch of the group costs one miss, not three. Shares
// opens the header and CpusetN closes it, so a caller that loads both
// (faults' churn Warm) has loaded all of it. TestGroupHotHeader pins the
// layout.
type Group struct {
	// Shares is the cpu.shares weight (default 1024). Mutate through
	// Scheduler.SetShares on a live scheduler.
	Shares int64
	// QuotaUS and PeriodUS define the bandwidth limit
	// (cfs_quota_us / cfs_period_us). QuotaUS < 0 means unlimited.
	// Mutate through Scheduler.SetQuota on a live scheduler.
	QuotaUS  int64
	PeriodUS int64
	schedIdx int  // position in Scheduler.groups, maintained on add/remove
	removed  bool // set by RemoveGroup
	// CpusetN is the number of CPUs in the group's affinity mask;
	// 0 means "all host CPUs". Mutate through Scheduler.SetCpuset on a
	// live scheduler.
	CpusetN int

	Name string
	// Gamma is the oversubscription sensitivity used in the useful-work
	// discount; see the package comment. Zero means oversubscription is
	// free (pure fluid model). Gamma is read live each tick and may be
	// written directly.
	Gamma float64

	tasks    []*Task
	teams    []*Team // in creation order, the order of their callbacks
	runnable int     // live runnable-task count (kept by Scheduler.SetRunnable)
	// teamRunnable counts runnable team members. Incremental repair
	// keys eager-vs-deferred accounting on it: a group with none can have
	// its per-tick accrual replayed later, one with any cannot (a team
	// callback must fire every tick).
	teamRunnable int

	parent   *Group
	children []*Group

	sched *Scheduler

	// final freezes the group's accounting when it is removed, so
	// post-mortem reads (experiment summaries over killed containers)
	// keep working after the scheduler compacts its hot arrays.
	final     groupAcct
	finalRate float64
}

// acct returns the group's live accounting slot, or the frozen copy
// after removal.
func (g *Group) acct() *groupAcct {
	if g.removed {
		return &g.final
	}
	return &g.sched.gAcct[g.schedIdx]
}

// Children returns the nested groups.
func (g *Group) Children() []*Group { return g.children }

// CPULimit returns the bandwidth limit in CPUs (quota/period), or
// math.Inf(1) if the group is unlimited.
func (g *Group) CPULimit() float64 {
	if g.QuotaUS < 0 || g.PeriodUS <= 0 {
		return math.Inf(1)
	}
	return float64(g.QuotaUS) / float64(g.PeriodUS)
}

// StaticCPUs returns the CPU count a static-limit view reports for the
// group — LXCFS, the cgroup namespace, and JDK 9's container detection:
// |cpuset| first, then floor(quota/period) with a minimum of 1, else
// host. It knows nothing of shares or co-located load; the adaptive
// view's E_CPU does.
func (g *Group) StaticCPUs(host int) int {
	if g.CpusetN > 0 {
		return g.CpusetN
	}
	if lim := g.CPULimit(); !math.IsInf(lim, 1) {
		return max(int(math.Floor(lim+1e-9)), 1)
	}
	return host
}

// Usage returns the group's total raw CPU consumption.
func (g *Group) Usage() units.CPUSeconds {
	g.settle()
	return g.acct().usage
}

// ThrottledTime returns the cumulative wall time during which the group's
// bandwidth limit capped its allocation.
func (g *Group) ThrottledTime() time.Duration {
	g.settle()
	return g.acct().throttledDur
}

// Index returns the group's position in Scheduler.Groups(), the index
// TakeWindowAt reads, or -1 once the group is removed. RemoveGroup's
// compaction moves every later group down by one.
func (g *Group) Index() int {
	if g.removed {
		return -1
	}
	return g.schedIdx
}

// LastRate returns the CPU rate (in CPUs) the group received in the most
// recent tick.
func (g *Group) LastRate() float64 {
	if g.removed {
		return g.finalRate
	}
	return g.sched.gRate[g.schedIdx]
}

// RunnableTasks returns the number of currently runnable tasks. The
// count is maintained on task state changes rather than scanned: capOf
// and accountGroup read it for every group a tick visits.
func (g *Group) RunnableTasks() int { return g.runnable }

// Scheduler is the host CPU scheduler.
type Scheduler struct {
	ncpu   int
	groups []*Group
	nextID int

	// Trace receives throttle/unthrottle events and the scheduler tick
	// counters. NewScheduler gives it a ring-less tracer that counts.
	Trace *telemetry.Tracer

	loadAvg float64 // see loadAvgTau

	slackWindow   units.CPUSeconds // unused capacity since last TakeWindowSlack
	slackLast     float64          // unused CPUs in the most recent tick
	totalRunnable int              // runnable tasks in the most recent tick
	runnableNow   int              // live runnable-task count (kept by SetRunnable)
	ticks         uint64

	// Struct-of-arrays hot state, parallel to groups (indexed by
	// schedIdx, compacted in step on RemoveGroup).
	gCap  []float64 // memoized per-group capacity cap
	gLim  []float64 // bandwidth limit the cap was computed under (the throttle rule reads it)
	gRate []float64 // memoized water-fill result (= LastRate)
	gAcct []groupAcct

	// Memoized allocation metadata.
	active      []int // groups with rate > 0, ascending schedIdx
	loadContrib float64

	// Fill scratch, reused tick to tick: the top-level participants and
	// one parent's children, which waterfill consumes in place.
	scratchTop   []int
	scratchChild []int

	// rebuildOracle makes every tick a full rebuild, bypassing the memo.
	// Only the test oracle sets it (export_test.go).
	rebuildOracle bool

	// runnableMoved records a runnable-count change since the running
	// walk started; the walk then re-sums the load contribution at its
	// end, so the load average reads the tick-end counts.
	runnableMoved bool

	// Incremental-repair state (repair.go). All index lists are
	// ascending schedIdx and kept exact across RemoveGroup compaction.
	dirty          []int    // groups queued for allocation repair (acctAllocDirty)
	pendingTopFill bool     // top-level fill must rerun (active top membership changed)
	pendingResum   bool     // slack/loadContrib sums must re-derive (an active group left)
	activeTop      []int    // top-level groups with cap > 0 (acctTop)
	eagerIdx       []int    // active groups with runnable team members (acctEager)
	gSettled       []uint64 // tick through which each group's accounting is settled
	lastDt         time.Duration
	lastDtSec      float64
	// Mid-walk settle guard: during a tick's accounting walk, reads of a
	// group the walk has not reached yet settle to the previous tick
	// (its current-tick accrual happens when the walk reaches it),
	// matching what a full walk would expose at the same point.
	inWalk  bool
	walkPos int
	// repair scratch, reused tick to tick
	repairOld     []float64
	repairChanged []int
	repairParents []int
	topAdds       []int
	activeAdds    []int
	eagerAdds     []int
	activeRemoved bool
	eagerRemoved  bool
	topRemoved    bool
	activeBuf     []int
	eagerBuf      []int
	topBuf        []int
}

// loadAvgTau is the time constant of the exponentially weighted load
// average the "dynamic" OpenMP strategy reads. Linux's getloadavg
// horizon is one minute; simulated workloads compress timescales by
// roughly that factor, so it is one second — long parallel regions
// still dominate a horizon, which is the regime in which gomp's
// n_onln - loadavg feedback loop oscillates.
const loadAvgTau = time.Second

// NewScheduler returns a scheduler for a host with ncpu cores.
func NewScheduler(ncpu int) *Scheduler {
	if ncpu <= 0 {
		panic(fmt.Sprintf("cfs: non-positive CPU count %d", ncpu))
	}
	// The empty memo is exact: no group has a cap or a rate, so every
	// CPU is slack.
	return &Scheduler{ncpu: ncpu, slackLast: float64(ncpu), Trace: new(telemetry.Tracer)}
}

// NCPU returns the number of host cores.
func (s *Scheduler) NCPU() int { return s.ncpu }

// LoadAvg returns the exponentially weighted average number of runnable
// tasks (the loadavg term of the "dynamic" OpenMP strategy).
func (s *Scheduler) LoadAvg() float64 { return s.loadAvg }

// SlackLast returns the unused CPU capacity (in CPUs) in the most recent
// tick — the instantaneous pslack of Algorithm 1.
func (s *Scheduler) SlackLast() float64 { return s.slackLast }

// TakeWindowSlack returns the unused CPU capacity accumulated since the
// previous call and resets the window.
func (s *Scheduler) TakeWindowSlack() units.CPUSeconds {
	v := s.slackWindow
	s.slackWindow = 0
	return v
}

// Groups returns the live scheduling groups.
func (s *Scheduler) Groups() []*Group { return s.groups }

// SetShares writes g's cpu.shares weight. All share changes on a live
// group must go through here (the cgroups layer does), so a reweight
// that can move the allocation marks it for repair.
func (s *Scheduler) SetShares(g *Group, shares int64) {
	if shares == g.Shares {
		return
	}
	g.Shares = shares
	if !g.removed {
		s.noteAllocChange(g)
	}
}

// SetQuota writes g's bandwidth limit (cfs_quota_us / cfs_period_us).
// quotaUS < 0 means unlimited. All quota changes on a live group must go
// through here (the cgroups layer does).
//
// Quota churn is the dominant event stream at scale, so a write whose
// old and new limits both sit above the group's cap costs nothing: the
// cap, every rate and the throttle state are unchanged. Any other write
// queues the group for repair.
func (s *Scheduler) SetQuota(g *Group, quotaUS, periodUS int64) {
	if g.removed {
		// A removed group cannot affect the allocation.
		g.QuotaUS, g.PeriodUS = quotaUS, periodUS
		return
	}
	limOld := g.CPULimit()
	g.QuotaUS, g.PeriodUS = quotaUS, periodUS
	capOld := s.gCap[g.schedIdx]
	if limOld > capOld+1e-9 && g.CPULimit() > capOld+1e-9 {
		// Neither limit binds (rate <= cap < lim-1e-9 throughout):
		// cap, rates, and throttle state are all unchanged.
		return
	}
	s.noteAllocChange(g)
}

// SetCpuset writes the size of g's CPU affinity mask; 0 means "all host
// CPUs". All cpuset changes on a live group must go through here (the
// cgroups layer does).
func (s *Scheduler) SetCpuset(g *Group, n int) {
	g.CpusetN = n
	if !g.removed {
		s.noteAllocChange(g)
	}
}

// capOf computes a group's per-tick capacity cap from live state: a
// leaf's runnable count, a parent's summed child caps (read from gCap,
// so children must be current first), each bounded by the cpuset size
// and the bandwidth limit lim, which it also returns. It is the only cap
// computation: the rebuild and repair both call it and store the pair
// in gCap and gLim, so a recomputed cap compares bitwise against gCap.
func (s *Scheduler) capOf(g *Group) (c, lim float64) {
	lim = g.CPULimit()
	if len(g.children) > 0 {
		for _, ch := range g.children {
			c += s.gCap[ch.schedIdx]
		}
	} else if c = float64(g.runnable); c == 0 {
		return 0, lim
	}
	if g.CpusetN > 0 && float64(g.CpusetN) < c {
		c = float64(g.CpusetN)
	}
	if lim < c {
		c = lim
	}
	return c, lim
}

// NewGroup creates and registers a top-level scheduling group. Shares
// defaults to DefaultShares; quota defaults to unlimited.
func (s *Scheduler) NewGroup(name string) *Group {
	g := &Group{
		Name:     name,
		Shares:   DefaultShares,
		QuotaUS:  -1,
		PeriodUS: 100_000,
		sched:    s,
	}
	g.schedIdx = len(s.groups)
	s.groups = append(s.groups, g)
	s.growHot()
	// A new group has no runnable tasks, so cap 0: it joins no fill and
	// moves no allocation, and the memo stays valid.
	return g
}

// NewChildGroup creates a group nested under parent. The parent must not
// hold tasks (cgroup v2's no-internal-processes rule) and nesting is
// limited to one level.
func (s *Scheduler) NewChildGroup(parent *Group, name string) *Group {
	if parent.removed {
		panic("cfs: NewChildGroup on removed group " + parent.Name)
	}
	if parent.parent != nil {
		panic("cfs: nesting deeper than one level is not supported")
	}
	if len(parent.tasks) > 0 {
		panic("cfs: parent group " + parent.Name + " holds tasks (no-internal-processes rule)")
	}
	g := &Group{
		Name:     name,
		Shares:   DefaultShares,
		QuotaUS:  -1,
		PeriodUS: 100_000,
		parent:   parent,
		sched:    s,
	}
	g.schedIdx = len(s.groups)
	parent.children = append(parent.children, g)
	s.groups = append(s.groups, g)
	s.growHot()
	return g
}

// growHot appends one zeroed slot to each hot array, keeping them
// parallel to groups.
func (s *Scheduler) growHot() {
	s.gCap = append(s.gCap, 0)
	s.gLim = append(s.gLim, math.Inf(1))
	s.gRate = append(s.gRate, 0)
	s.gAcct = append(s.gAcct, groupAcct{})
	s.gSettled = append(s.gSettled, s.ticks)
}

// RemoveGroup unregisters a group, its tasks, and (for a parent) its
// children. The group's accounting is frozen for post-mortem reads.
func (s *Scheduler) RemoveGroup(g *Group) {
	for _, c := range append([]*Group(nil), g.children...) {
		s.RemoveGroup(c)
	}
	// Freeze fully settled accounting, and queue the repair the removal
	// causes before the group's bookkeeping disappears.
	s.settleTo(g.schedIdx, s.ticks)
	if s.gRate[g.schedIdx] > 0 {
		// An active group leaves: the slack and load-contribution
		// ordered sums must re-derive even if no surviving rate moves
		// (e.g. everyone else already sits at cap).
		s.pendingResum = true
	}
	if g.parent != nil && !g.parent.removed {
		s.noteAllocChange(g.parent)
	} else if g.parent == nil && s.gAcct[g.schedIdx].flags&acctTop != 0 {
		// An active top-level group leaves the fill: its grant must be
		// redistributed even though no surviving group was touched.
		s.pendingTopFill = true
	}
	g.final = s.gAcct[g.schedIdx]
	g.finalRate = s.gRate[g.schedIdx]
	g.removed = true
	for _, t := range g.tasks {
		t.removed = true
		if t.runnable {
			s.runnableNow--
		}
		t.runnable = false
	}
	for _, tm := range g.teams {
		tm.runnable = 0
	}
	g.tasks = nil
	g.runnable = 0
	g.teamRunnable = 0
	if g.parent != nil {
		for i, x := range g.parent.children {
			if x == g {
				g.parent.children = slices.Delete(g.parent.children, i, i+1)
				break
			}
		}
	}
	i := g.schedIdx
	s.groups = slices.Delete(s.groups, i, i+1)
	s.gCap = append(s.gCap[:i], s.gCap[i+1:]...)
	s.gLim = append(s.gLim[:i], s.gLim[i+1:]...)
	s.gRate = append(s.gRate[:i], s.gRate[i+1:]...)
	s.gAcct = append(s.gAcct[:i], s.gAcct[i+1:]...)
	s.gSettled = append(s.gSettled[:i], s.gSettled[i+1:]...)
	for j := i; j < len(s.groups); j++ {
		s.groups[j].schedIdx = j
	}
	// The index lists stay exact: drop the removed slot and shift the
	// entries the compaction moved.
	s.active = patchIdxList(s.active, i)
	s.dirty = patchIdxList(s.dirty, i)
	s.activeTop = patchIdxList(s.activeTop, i)
	s.eagerIdx = patchIdxList(s.eagerIdx, i)
}

// NewTask creates a task in group g with no tick callback. Tasks start
// blocked; call SetRunnable.
func (s *Scheduler) NewTask(g *Group, name string) *Task {
	if g.removed {
		panic("cfs: NewTask on removed group " + g.Name)
	}
	if len(g.children) > 0 {
		panic("cfs: NewTask on parent group " + g.Name + " (no-internal-processes rule)")
	}
	s.nextID++
	t := &Task{ID: s.nextID, Name: name, group: g}
	g.tasks = append(g.tasks, t)
	return t
}

// NewTeam creates an empty team in group g. Its members' useful work is
// discounted with gamma, or with the group's Gamma (read live each tick)
// when gamma is 0; fn runs once per tick in which any member is
// runnable. See Team.
func (s *Scheduler) NewTeam(g *Group, gamma float64, fn TeamFunc) *Team {
	tm := &Team{group: g, gamma: gamma, fn: fn}
	g.teams = append(g.teams, tm)
	return tm
}

// NewTeamTask creates a member of team tm in the team's group.
func (s *Scheduler) NewTeamTask(tm *Team, name string) *Task {
	t := s.NewTask(tm.group, name)
	t.team = tm
	return t
}

// RemoveTask removes a task from its group.
func (s *Scheduler) RemoveTask(t *Task) {
	t.removed = true
	if t.runnable {
		// Account the task's deferred ticks before it leaves the replay
		// set.
		s.settleLive(t.group.schedIdx)
		s.countRunnable(t, -1)
		s.noteAllocChange(t.group)
	}
	t.runnable = false
	g := t.group
	for i, x := range g.tasks {
		if x == t {
			g.tasks = slices.Delete(g.tasks, i, i+1)
			break
		}
	}
}

// SetRunnable marks the task runnable (true) or blocked (false).
func (s *Scheduler) SetRunnable(t *Task, runnable bool) {
	if t.removed && runnable {
		panic("cfs: waking removed task " + t.Name)
	}
	if t.runnable == runnable {
		return
	}
	// Settle at the old rate and runnable count before the flip: the
	// deferred ticks all ran under them.
	s.settleLive(t.group.schedIdx)
	t.runnable = runnable
	d := -1
	if runnable {
		d = 1
	}
	s.countRunnable(t, d)
	s.noteAllocChange(t.group)
}

// countRunnable moves the runnable counts of the scheduler, the task's
// group, and its team by d.
func (s *Scheduler) countRunnable(t *Task, d int) {
	s.runnableMoved = true
	s.runnableNow += d
	t.group.runnable += d
	if t.team != nil {
		t.team.runnable += d
		t.group.teamRunnable += d
	}
}

// SchedPeriod returns the CFS scheduling period for the current number of
// runnable tasks: 24 ms when there are at most 8, otherwise
// 3 ms x ntasks. The paper sets the sys_namespace update interval to this
// value (§3.2).
func (s *Scheduler) SchedPeriod() time.Duration {
	n := s.totalRunnable
	if n <= 8 {
		return 24 * time.Millisecond
	}
	return time.Duration(n) * 3 * time.Millisecond
}

// waterfill distributes capacity among the given groups by weighted
// max-min fairness: proportional to shares, capped per group, iterating
// until saturated groups' leftovers are redistributed (work
// conservation). Results are written into alloc, indexed like groups.
func waterfill(groups []*Group, caps, alloc []float64, active []int, capacity float64) {
	remaining := capacity
	for len(active) > 0 && remaining > 1e-12 {
		var totalW float64
		for _, i := range active {
			totalW += float64(groups[i].Shares)
		}
		if totalW <= 0 {
			break
		}
		saturated := false
		next := active[:0]
		// First pass: saturate groups whose fair share exceeds their cap.
		for _, i := range active {
			fair := remaining * float64(groups[i].Shares) / totalW
			if alloc[i]+fair >= caps[i]-1e-12 {
				remaining -= caps[i] - alloc[i]
				alloc[i] = caps[i]
				saturated = true
			} else {
				next = append(next, i)
			}
		}
		if !saturated {
			// Nobody saturates: distribute the remainder proportionally.
			for _, i := range next {
				alloc[i] += remaining * float64(groups[i].Shares) / totalW
			}
			remaining = 0
		}
		active = next
	}
}

// Tick advances the scheduler by dt: allocates CPU, advances task work,
// and updates accounting and the load average. It is called once per
// simulation tick by the host, always with the same dt: a Tick with a
// dt other than the first one's panics. With nothing dirty it walks
// only the groups whose team callbacks must fire (quietTick); otherwise
// it repairs the dirty set in place (repairTick). Results are
// bit-identical to rebuilding every tick, which only the test oracle
// does.
//
// The allocation is fixed for the whole tick: a scheduler input that a
// team callback changes during the tick's walk (a block, a wake, a
// limit write) is queued like any other change and takes effect on the
// next tick, in both regimes.
func (s *Scheduler) Tick(now sim.Time, dt time.Duration) {
	if dt != s.lastDt {
		// The deferred-accounting replay assumes one tick length: the
		// first Tick fixes it, as a host's tick is fixed.
		if s.lastDt != 0 {
			panic(fmt.Sprintf("cfs: Tick dt %v after %v; the tick length is fixed", dt, s.lastDt))
		}
		s.lastDt, s.lastDtSec = dt, dt.Seconds()
	}
	s.ticks++
	s.Trace.Add(telemetry.CtrSchedTicks, 1)
	dtSec := s.lastDtSec
	s.totalRunnable = s.runnableNow

	switch {
	case s.rebuildOracle:
		s.Trace.Add(telemetry.CtrTickRebuilds, 1)
		s.resetRepairState()
		s.rebuildTick(now, dt, dtSec)
	case len(s.dirty) == 0 && !s.pendingTopFill && !s.pendingResum:
		s.quietTick(now, dt, dtSec)
	default:
		s.Trace.Add(telemetry.CtrTickRepairs, 1)
		s.repairTick(now, dt, dtSec)
	}

	s.slackWindow += units.CPUSeconds(s.slackLast * dtSec)

	// Load average: first-order low-pass filter over the enqueued task
	// count (throttled groups contribute only their bandwidth).
	s.loadAvg += (s.loadContrib - s.loadAvg) * min(dtSec/loadAvgTau.Seconds(), 1)
}

// tickGroup advances an eager group the tick's allocation did not touch
// by one tick at the memoized allocation: usage accrual, ThrottledTime
// while its own limit binds (its throttle state cannot move without a
// repair), and the team callbacks. The caller has stamped this tick.
func (s *Scheduler) tickGroup(now sim.Time, i int, g *Group, dt time.Duration, dtSec float64) {
	a := &s.gAcct[i]
	raw := units.CPUSeconds(s.gRate[i] * dtSec)
	a.usage += raw
	a.windowUsage += raw
	if a.flags&acctDurBinding != 0 {
		a.throttledDur += dt
	}
	runTeams(now, g, a.perTask, a.over, dtSec)
}

// runTeams gives each of a leaf's teams with a runnable member its tick
// callback, in creation order: raw = perTask CPUs for one tick, useful =
// raw discounted by the oversubscription penalty 1/(1+gamma*over) at the
// team's gamma (the group's when the team's is 0). Each count is read
// when its team's turn comes, so earlier callbacks' blocks and wakes
// count (see Team).
func runTeams(now sim.Time, g *Group, perTask, over, dtSec float64) {
	rawT := units.CPUSeconds(perTask * dtSec)
	groupEff := discount(g.Gamma, over)
	// Ranging over the slice header snapshots the team list: a callback
	// may create teams for future ticks.
	for _, tm := range g.teams {
		if tm.runnable == 0 {
			continue
		}
		eff := groupEff
		if tm.gamma > 0 {
			eff = discount(tm.gamma, over)
		}
		tm.fn(now, tm.runnable, units.CPUSeconds(float64(rawT)*eff), rawT)
	}
}

// discount is the useful-work factor 1/(1+gamma*over) of the package
// comment, or 1 when the group is not oversubscribed or the sensitivity
// is zero.
func discount(gamma, over float64) float64 {
	if over > 0 && gamma > 0 {
		return 1 / (1 + gamma*over)
	}
	return 1
}

// recomputeLoadContrib derives the load contribution from the active
// leaves' current runnable counts, as an ascending ordered sum so every
// tick regime produces the same bits. Linux dequeues a
// bandwidth-throttled group for the rest of its period, so its excess
// tasks do not appear in the load average: a 20-thread container pinned
// to a 4-CPU quota contributes ~4 to loadavg, not 20.
func (s *Scheduler) recomputeLoadContrib() {
	contrib := 0.0
	for _, i := range s.active {
		g := s.groups[i]
		if len(g.children) > 0 {
			continue
		}
		rate := s.gRate[i]
		nr := g.runnable
		if s.gAcct[i].flags&acctThrottled != 0 && float64(nr) > rate {
			contrib += rate
		} else {
			contrib += float64(nr)
		}
	}
	s.loadContrib = contrib
}

// refreshThrottle applies the throttle rule to an active group (rate >
// 0) for this tick, and is the only place the rule lives. It reads each
// limit from gLim, as of the group's last cap computation, so a limit
// written during the walk moves no throttle state before the next tick,
// in either regime. A group's own limit binds when its rate reaches it:
// that accrues this tick's throttledDur and sets acctDurBinding, so
// deferred ticks keep accruing in settleTo. A leaf whose parent's limit
// binds is throttled too, but accrues nothing: its own limit did not
// cap it. The flag transition is recorded (and traced) through
// noteThrottle. It reports whether a leaf's throttle flag moved (which
// changes the group's load-average contribution).
func (s *Scheduler) refreshThrottle(now sim.Time, i int, g *Group, rate float64, dt time.Duration) bool {
	a := &s.gAcct[i]
	binding := limitBinds(s.gLim[i], rate)
	if binding {
		a.throttledDur += dt
	}
	a.setFlag(acctDurBinding, binding)
	throttled := binding || g.parent != nil && limitBinds(s.gLim[g.parent.schedIdx], s.gRate[g.parent.schedIdx])
	was := a.flags&acctThrottled != 0
	s.noteThrottle(now, i, g, throttled, rate)
	return len(g.children) == 0 && was != throttled
}

// limitBinds reports whether a bandwidth limit of lim CPUs caps a rate
// of rate CPUs, to within the water fill's float residue.
func limitBinds(lim, rate float64) bool {
	return !math.IsInf(lim, 1) && rate >= lim-1e-9
}

// rebuildTick is the full reference tick: it recomputes every cap with
// capOf (leaves first, then parents, which sum their children's), reruns
// both water-fill levels, and walks every group through accountGroup,
// the per-group body repair ticks use, deferring nothing. The active,
// eager and fill-participant lists are patched exactly as a repair
// patches them, and slack and the load contribution are re-derived from
// the active leaves. Only the test oracle runs it (Tick with
// rebuildOracle set), every tick.
func (s *Scheduler) rebuildTick(now sim.Time, dt time.Duration, dtSec float64) {
	for i, g := range s.groups {
		s.gRate[i] = 0
		if len(g.children) == 0 {
			s.gCap[i], s.gLim[i] = s.capOf(g)
		}
	}
	for i, g := range s.groups {
		if len(g.children) > 0 {
			s.gCap[i], s.gLim[i] = s.capOf(g)
		}
	}

	// Top-level water fill over parents and parentless groups.
	top := s.scratchTop[:0]
	for i, g := range s.groups {
		in := g.parent == nil && s.gCap[i] > 0
		s.gAcct[i].setFlag(acctTop, in)
		if in {
			top = append(top, i)
		}
	}
	// Snapshot the fill participants before waterfill consumes the list
	// in place: repair ticks refill over this set.
	s.activeTop = append(s.activeTop[:0], top...)
	waterfill(s.groups, s.gCap, s.gRate, top, float64(s.ncpu))
	s.scratchTop = top[:0]

	// Second level: each parent's grant is filled among its children.
	for i, g := range s.groups {
		if len(g.children) == 0 || s.gRate[i] <= 0 {
			continue
		}
		childActive := s.scratchChild[:0]
		for _, c := range g.children {
			if s.gCap[c.schedIdx] > 0 {
				childActive = append(childActive, c.schedIdx)
			}
		}
		waterfill(s.groups, s.gCap, s.gRate, childActive, s.gRate[i])
		s.scratchChild = childActive[:0]
	}

	s.inWalk = true
	for i, g := range s.groups {
		s.walkPos = i
		s.accountGroup(now, i, g, dt, dtSec)
	}
	s.inWalk = false
	s.patchMembership()
	s.recomputeUsedSlack()
	s.recomputeLoadContrib()
}

func (a *groupAcct) setFlag(bit uint16, on bool) {
	if on {
		a.flags |= bit
	} else {
		a.flags &^= bit
	}
}

// noteThrottle updates a group's throttled flag for this tick and emits
// a transition event.
func (s *Scheduler) noteThrottle(now sim.Time, i int, g *Group, throttled bool, rate float64) {
	a := &s.gAcct[i]
	if a.flags&acctThrottled != 0 == throttled {
		return
	}
	a.setFlag(acctThrottled, throttled)
	if !throttled {
		s.Trace.Emit(now, telemetry.KindUnthrottle, g.Name, int64(rate*1000), 0)
		return
	}
	s.Trace.Emit(now, telemetry.KindThrottle, g.Name, int64(rate*1000), 0)
}
