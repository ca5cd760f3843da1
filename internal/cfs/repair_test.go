package cfs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"arv/internal/telemetry"
	"arv/internal/units"
)

// mirror drives a rebuild-oracle scheduler and a repair scheduler
// through the same operation sequence and asserts every observable value
// stays bit-identical. It is the executable form of the equivalence
// argument in DESIGN.md §15.
type mirror struct {
	t      *testing.T
	oracle *Scheduler
	rep    *Scheduler
	now    time.Duration

	groups []mirrorGroup
	tasks  []mirrorTask
	teams  []mirrorTeam
}

type mirrorGroup struct {
	e, r *Group
}

type mirrorTask struct {
	e, r *Task
}

// mirrorTeam is a team on both arms. useful and members accumulate the
// callback's arguments per arm (useful once per member, in order), so
// the callback stream itself is part of the compared state.
type mirrorTeam struct {
	e, r    *Team
	group   int
	tasks   []int // member task indices, in creation order
	useful  [2]float64
	members [2]int
}

func newMirror(t *testing.T, ncpu int) *mirror {
	m := &mirror{
		t:      t,
		oracle: newOracleScheduler(ncpu),
		rep:    NewScheduler(ncpu),
	}
	return m
}

func (m *mirror) newGroup(name string) int {
	m.groups = append(m.groups, mirrorGroup{m.oracle.NewGroup(name), m.rep.NewGroup(name)})
	return len(m.groups) - 1
}

func (m *mirror) newChild(parent int, name string) int {
	p := m.groups[parent]
	m.groups = append(m.groups, mirrorGroup{
		m.oracle.NewChildGroup(p.e, name),
		m.rep.NewChildGroup(p.r, name),
	})
	return len(m.groups) - 1
}

// newTask creates a mirrored task; every > 0 makes it a team of one
// whose callback blocks it on every every-th call.
func (m *mirror) newTask(group int, name string, every int) int {
	if every > 0 {
		return m.joinTeam(m.newTeam(group, 0, every), name)
	}
	g := m.groups[group]
	m.tasks = append(m.tasks, mirrorTask{e: m.oracle.NewTask(g.e, name), r: m.rep.NewTask(g.r, name)})
	return len(m.tasks) - 1
}

// newTeam creates an empty mirrored team whose callback accumulates
// useful work and, on every every-th call, blocks the team's first
// runnable member — a deterministic mid-tick state change both arms
// replay identically.
func (m *mirror) newTeam(group int, gamma float64, every int) int {
	k := len(m.teams)
	hook := func(arm int, s *Scheduler) TeamFunc {
		calls := 0
		return func(now time.Duration, n int, useful, raw units.CPUSeconds) {
			tm := &m.teams[k]
			u := tm.useful[arm]
			for j := 0; j < n; j++ {
				u += float64(useful)
			}
			tm.useful[arm] = u
			tm.members[arm] += n
			calls++
			if calls%every != 0 {
				return
			}
			for _, ti := range tm.tasks {
				if t := m.tasks[ti].arm(arm); t.runnable {
					s.SetRunnable(t, false)
					return
				}
			}
		}
	}
	return m.addTeam(group, gamma, hook)
}

// addTeam creates a mirrored team whose callback on each arm is
// hook(arm, that arm's scheduler), and returns its index.
func (m *mirror) addTeam(group int, gamma float64, hook func(arm int, s *Scheduler) TeamFunc) int {
	g := m.groups[group]
	m.teams = append(m.teams, mirrorTeam{
		e:     m.oracle.NewTeam(g.e, gamma, hook(0, m.oracle)),
		r:     m.rep.NewTeam(g.r, gamma, hook(1, m.rep)),
		group: group,
	})
	return len(m.teams) - 1
}

// newWaker creates a mirrored team whose callback, on every every-th
// call, wakes one blocked task of another group, searching from task
// index from. It only wakes into a group the walk has passed or one
// with no CPU this tick: both protocols defer those wakes to the next
// tick alike. A wake into a group that runs later in the same tick is
// left out, because whether that group's walk sees the new member
// depends on whether the tick visits it (see Team).
func (m *mirror) newWaker(group, every, from int) int {
	k := len(m.teams)
	hook := func(arm int, s *Scheduler) TeamFunc {
		calls := 0
		return func(now time.Duration, n int, useful, raw units.CPUSeconds) {
			tm := &m.teams[k]
			tm.useful[arm] += float64(useful)
			tm.members[arm] += n
			if calls++; calls%every != 0 {
				return
			}
			self := m.groups[tm.group].arm(arm)
			for j := range m.tasks {
				t := m.tasks[(from+j)%len(m.tasks)].arm(arm)
				g := t.group
				if t.removed || t.runnable || g == self {
					continue
				}
				if g.schedIdx < self.schedIdx || s.gRate[g.schedIdx] == 0 {
					s.SetRunnable(t, true)
					return
				}
			}
		}
	}
	return m.addTeam(group, 0, hook)
}

// newLimiter creates a mirrored team whose callback, on every every-th
// call, writes a quota from quotaPalette on one group: the first write
// uses palette entry pick%len(quotaPalette), each later write the next
// one, and the target is the first live group from group index
// pick/len(quotaPalette) on — one the walk has passed, its own group,
// or one later in the walk. Both protocols apply the write from the next
// tick, whichever it is (see Team).
func (m *mirror) newLimiter(group, every, pick int) int {
	k := len(m.teams)
	hook := func(arm int, s *Scheduler) TeamFunc {
		calls, writes := 0, 0
		return func(now time.Duration, n int, useful, raw units.CPUSeconds) {
			tm := &m.teams[k]
			tm.useful[arm] += float64(useful)
			tm.members[arm] += n
			if calls++; calls%every != 0 {
				return
			}
			from := pick / len(quotaPalette)
			for j := range m.groups {
				g := m.groups[(from+j)%len(m.groups)].arm(arm)
				if g.removed {
					continue
				}
				q := quotaPalette[(pick+writes)%len(quotaPalette)]
				writes++
				s.SetQuota(g, q[0], q[1])
				return
			}
		}
	}
	return m.addTeam(group, 0, hook)
}

// joinTeam adds a mirrored member to team tm.
func (m *mirror) joinTeam(tm int, name string) int {
	te := &m.teams[tm]
	m.tasks = append(m.tasks, mirrorTask{e: m.oracle.NewTeamTask(te.e, name), r: m.rep.NewTeamTask(te.r, name)})
	ti := len(m.tasks) - 1
	te.tasks = append(te.tasks, ti)
	return ti
}

func (mg *mirrorGroup) arm(arm int) *Group {
	if arm == 0 {
		return mg.e
	}
	return mg.r
}

func (tk *mirrorTask) arm(arm int) *Task {
	if arm == 0 {
		return tk.e
	}
	return tk.r
}

func (m *mirror) setRunnable(task int, run bool) {
	tk := &m.tasks[task]
	if tk.e.removed || tk.e.runnable == run {
		return
	}
	m.oracle.SetRunnable(tk.e, run)
	m.rep.SetRunnable(tk.r, run)
}

func (m *mirror) removeTask(task int) {
	tk := &m.tasks[task]
	if tk.e.removed {
		return
	}
	m.oracle.RemoveTask(tk.e)
	m.rep.RemoveTask(tk.r)
}

func (m *mirror) removeGroup(group int) {
	g := m.groups[group]
	if g.e.removed {
		return
	}
	m.oracle.RemoveGroup(g.e)
	m.rep.RemoveGroup(g.r)
}

func (m *mirror) tick() {
	m.now += time.Millisecond
	m.oracle.Tick(m.now, time.Millisecond)
	m.rep.Tick(m.now, time.Millisecond)
}

// check compares every observable across the two arms. Float values are
// compared bitwise: the repair protocol promises the identical sequence
// of float operations, not approximate equality. Value names are
// formatted only on failure, and eq does not call t.Helper (which walks
// the stack): check runs after every tick of every mirror and fuzz
// input.
func (m *mirror) check(ctx string) {
	t := m.t
	t.Helper()
	eq := func(a, b float64, what string, args ...any) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s diverged: oracle %v (%x) repair %v (%x)",
				ctx, fmt.Sprintf(what, args...), a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	if len(m.oracle.groups) != len(m.rep.groups) {
		t.Fatalf("%s: group count diverged: %d vs %d", ctx, len(m.oracle.groups), len(m.rep.groups))
	}
	// Windows first, through the view round's settle pass and the index
	// read, before any per-group read below settles a group: a deferred
	// group the pass skips shows here as a short window.
	m.oracle.SettleWindows()
	m.rep.SettleWindows()
	for i := range m.oracle.groups {
		eq(float64(m.oracle.gAcct[i].windowUsage), float64(m.rep.gAcct[i].windowUsage), "windowUsage[%d] (%s)", i, m.oracle.groups[i].Name)
	}
	const throttleBits = acctThrottled | acctDurBinding
	for i := range m.oracle.groups {
		eq(m.oracle.gCap[i], m.rep.gCap[i], "gCap[%d] (%s)", i, m.oracle.groups[i].Name)
		eq(m.oracle.gRate[i], m.rep.gRate[i], "gRate[%d] (%s)", i, m.oracle.groups[i].Name)
		if fe, fr := m.oracle.gAcct[i].flags&throttleBits, m.rep.gAcct[i].flags&throttleBits; fe != fr {
			t.Fatalf("%s: throttle bits of %s diverged: oracle %b repair %b", ctx, m.oracle.groups[i].Name, fe, fr)
		}
	}
	if la, lb := m.oracle.active, m.rep.active; !intSliceEq(la, lb) {
		t.Fatalf("%s: active diverged: oracle %v repair %v", ctx, la, lb)
	}
	eq(m.oracle.loadContrib, m.rep.loadContrib, "loadContrib")
	eq(m.oracle.slackLast, m.rep.slackLast, "slackLast")
	eq(m.oracle.loadAvg, m.rep.loadAvg, "loadAvg")
	eq(float64(m.oracle.slackWindow), float64(m.rep.slackWindow), "slackWindow")
	if m.oracle.totalRunnable != m.rep.totalRunnable {
		t.Fatalf("%s: totalRunnable diverged: %d vs %d", ctx, m.oracle.totalRunnable, m.rep.totalRunnable)
	}
	if m.oracle.runnableNow != m.rep.runnableNow {
		t.Fatalf("%s: runnableNow diverged: %d vs %d", ctx, m.oracle.runnableNow, m.rep.runnableNow)
	}
	for gi := range m.groups {
		ge, gr := m.groups[gi].e, m.groups[gi].r
		if ge.removed != gr.removed {
			t.Fatalf("%s: group %s removed-state diverged", ctx, ge.Name)
		}
		// The reads below settle the repair arm's deferred accounting —
		// reads are part of the contract under test.
		eq(float64(ge.Usage()), float64(gr.Usage()), "usage %s", ge.Name)
		if ge.ThrottledTime() != gr.ThrottledTime() {
			t.Fatalf("%s: throttledDur %s diverged: %v vs %v", ctx, ge.Name, ge.ThrottledTime(), gr.ThrottledTime())
		}
		if ge.Throttled() != gr.Throttled() {
			t.Fatalf("%s: throttled flag %s diverged: %v vs %v", ctx, ge.Name, ge.Throttled(), gr.Throttled())
		}
		if ge.RunnableTasks() != gr.RunnableTasks() {
			t.Fatalf("%s: runnable count %s diverged", ctx, ge.Name)
		}
		eq(ge.LastRate(), gr.LastRate(), "lastRate %s", ge.Name)
	}
	for ti := range m.tasks {
		tk := &m.tasks[ti]
		if tk.e.runnable != tk.r.runnable {
			t.Fatalf("%s: task %d runnable diverged", ctx, ti)
		}
	}
	for k := range m.teams {
		tm := &m.teams[k]
		eq(tm.useful[0], tm.useful[1], "team[%d] useful work", k)
		if tm.members[0] != tm.members[1] || tm.e.runnable != tm.r.runnable {
			t.Fatalf("%s: team %d diverged: %d vs %d member-ticks, %d vs %d runnable",
				ctx, k, tm.members[0], tm.members[1], tm.e.runnable, tm.r.runnable)
		}
		runnable := 0
		for _, ti := range tm.tasks {
			if m.tasks[ti].r.runnable {
				runnable++
			}
		}
		if runnable != tm.r.runnable {
			t.Fatalf("%s: team %d counts %d runnable members, has %d", ctx, k, tm.r.runnable, runnable)
		}
	}
	m.checkActive(ctx)
	m.checkRepairInvariants(ctx)
}

// checkActive asserts the invariant SettleWindows rests on, on both
// arms: active is exactly {i : gRate[i] > 0}, before the first tick and
// after idle ticks too. The mirror drivers call it after every op.
func (m *mirror) checkActive(ctx string) {
	for _, s := range []*Scheduler{m.oracle, m.rep} {
		j := 0
		for i, r := range s.gRate {
			if r <= 0 {
				continue
			}
			if j >= len(s.active) || s.active[j] != i {
				m.t.Fatalf("%s: active %v is not the groups with a positive rate (missing %d)", ctx, s.active, i)
			}
			j++
		}
		if j != len(s.active) {
			m.t.Fatalf("%s: active %v holds %d groups without a positive rate", ctx, s.active, len(s.active)-j)
		}
	}
}

// takeWindow reads group gi's CPU window on both arms the way the view
// round does: the settle pass, then the index read, which resets it.
func (m *mirror) takeWindow(gi int) (oracle, rep units.CPUSeconds) {
	m.oracle.SettleWindows()
	m.rep.SettleWindows()
	return m.oracle.TakeWindowAt(m.groups[gi].e.Index()), m.rep.TakeWindowAt(m.groups[gi].r.Index())
}

// checkRepairInvariants validates the repair arm's internal index lists
// against first principles. The central one is the next-tick rule: a
// leaf whose live cap differs from the memoized one must be queued for
// repair, so no change, including one a team callback makes mid-walk,
// can leave a stale allocation standing. Another: a throttled group has
// a positive rate and is on the active list.
func (m *mirror) checkRepairInvariants(ctx string) {
	t := m.t
	t.Helper()
	s := m.rep
	var wantEager, wantTop []int
	for i, g := range s.groups {
		teamRunnable := 0
		for _, tm := range g.teams {
			teamRunnable += tm.runnable
		}
		if teamRunnable != g.teamRunnable {
			t.Fatalf("%s: group %s counts %d runnable team members, its teams %d", ctx, g.Name, g.teamRunnable, teamRunnable)
		}
		if s.gRate[i] > 0 && len(g.children) == 0 && g.teamRunnable > 0 {
			wantEager = append(wantEager, i)
		}
		if g.parent == nil && s.gCap[i] > 0 {
			wantTop = append(wantTop, i)
		}
		if got := s.gAcct[i].flags&acctActive != 0; got != (s.gRate[i] > 0) {
			t.Fatalf("%s: acctActive[%d] inconsistent with rate %v", ctx, i, s.gRate[i])
		}
		if c, _ := s.capOf(g); len(g.children) == 0 && c != s.gCap[i] && s.gAcct[i].flags&acctAllocDirty == 0 {
			t.Fatalf("%s: leaf %s cap %v is stale (live %v) and not queued", ctx, g.Name, s.gCap[i], c)
		}
		if s.gAcct[i].flags&acctThrottled != 0 {
			if k := sort.SearchInts(s.active, i); s.gRate[i] <= 0 || k == len(s.active) || s.active[k] != i {
				t.Fatalf("%s: throttled group %s at rate %v is not on active %v", ctx, g.Name, s.gRate[i], s.active)
			}
		}
	}
	// eagerIdx may lag a mid-walk callback state change by one tick — but
	// only for groups sitting in the dirty set awaiting repair.
	have := map[int]bool{}
	for _, i := range s.eagerIdx {
		have[i] = true
	}
	for _, i := range wantEager {
		if !have[i] && s.gAcct[i].flags&acctAllocDirty == 0 {
			t.Fatalf("%s: eagerIdx %v missing %d and it is not dirty", ctx, s.eagerIdx, i)
		}
		delete(have, i)
	}
	for i := range have {
		if s.gAcct[i].flags&acctAllocDirty == 0 {
			t.Fatalf("%s: eagerIdx %v has stale non-dirty entry %d", ctx, s.eagerIdx, i)
		}
	}
	if !intSliceEq(s.activeTop, wantTop) {
		t.Fatalf("%s: activeTop %v, want %v", ctx, s.activeTop, wantTop)
	}
	for i := range s.groups {
		if s.gSettled[i] > s.ticks {
			t.Fatalf("%s: gSettled[%d]=%d beyond ticks=%d", ctx, i, s.gSettled[i], s.ticks)
		}
	}
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveGroup picks a random non-removed group index, or -1.
func (m *mirror) liveGroup(rng *rand.Rand) int {
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.groups))
		if !m.groups[i].e.removed {
			return i
		}
	}
	return -1
}

// liveLeaf picks a random non-removed childless group index, or -1.
func (m *mirror) liveLeaf(rng *rand.Rand) int {
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.groups))
		if g := m.groups[i].e; !g.removed && len(g.children) == 0 {
			return i
		}
	}
	return -1
}

var quotaPalette = [][2]int64{
	{-1, 100_000},
	{25_000, 100_000},  // 0.25 CPU
	{50_000, 100_000},  // 0.5 CPU
	{100_000, 100_000}, // 1 CPU
	{200_000, 100_000}, // 2 CPUs
	{400_000, 100_000}, // 4 CPUs
	{100_000, 50_000},  // 2 CPUs, shorter period
	{-1, 50_000},       // pure period change
}

var sharesPalette = []int64{128, 256, 512, 1024, 2048, 4096}

// step applies one random mirrored operation and checks the active
// list invariant after it. Returns true when the op was a tick (callers
// in lockstep mode compare after every tick).
func (m *mirror) step(rng *rand.Rand) bool {
	defer m.checkActive("after op")
	switch r := rng.Intn(100); {
	case r < 34:
		m.tick()
		return true
	case r < 50: // toggle a task
		if len(m.tasks) > 0 {
			ti := rng.Intn(len(m.tasks))
			m.setRunnable(ti, !m.tasks[ti].e.runnable)
		}
	case r < 62: // quota write (the dominant churn op at scale)
		if gi := m.liveGroup(rng); gi >= 0 {
			q := quotaPalette[rng.Intn(len(quotaPalette))]
			m.oracle.SetQuota(m.groups[gi].e, q[0], q[1])
			m.rep.SetQuota(m.groups[gi].r, q[0], q[1])
		}
	case r < 70: // shares write
		if gi := m.liveGroup(rng); gi >= 0 {
			sh := sharesPalette[rng.Intn(len(sharesPalette))]
			m.oracle.SetShares(m.groups[gi].e, sh)
			m.rep.SetShares(m.groups[gi].r, sh)
		}
	case r < 75: // cpuset write
		if gi := m.liveGroup(rng); gi >= 0 {
			n := rng.Intn(4) // 0 = unrestricted
			m.oracle.SetCpuset(m.groups[gi].e, n)
			m.rep.SetCpuset(m.groups[gi].r, n)
		}
	case r < 81: // grow the hierarchy
		if len(m.groups) < 48 {
			name := fmt.Sprintf("g%d", len(m.groups))
			if rng.Intn(3) == 0 {
				p := m.newGroup(name + "p")
				for c := 0; c < 2+rng.Intn(3); c++ {
					ci := m.newChild(p, fmt.Sprintf("%sc%d", name, c))
					ti := m.newTask(ci, "t", pickCallback(rng))
					if rng.Intn(2) == 0 {
						m.setRunnable(ti, true)
					}
				}
			} else {
				gi := m.newGroup(name)
				ti := m.newTask(gi, "t", pickCallback(rng))
				if rng.Intn(2) == 0 {
					m.setRunnable(ti, true)
				}
			}
		}
	case r < 84: // add a task to an existing leaf
		if gi := m.liveLeaf(rng); gi >= 0 && len(m.tasks) < 96 {
			ti := m.newTask(gi, "t+", pickCallback(rng))
			if rng.Intn(2) == 0 {
				m.setRunnable(ti, true)
			}
		}
	case r < 86: // a multi-member team, or a member for an existing one
		if len(m.tasks) >= 96 {
			break
		}
		if k := rng.Intn(len(m.teams) + 1); k < len(m.teams) {
			if g := m.groups[m.teams[k].group].e; !g.removed && len(g.children) == 0 {
				ti := m.joinTeam(k, "m+")
				if rng.Intn(2) == 0 {
					m.setRunnable(ti, true)
				}
			}
		} else if gi := m.liveLeaf(rng); gi >= 0 {
			tm := m.newTeam(gi, teamGammas[rng.Intn(len(teamGammas))], pickCallback(rng)|1)
			for n := 2 + rng.Intn(3); n > 0; n-- {
				m.setRunnable(m.joinTeam(tm, "m"), true)
			}
		}
	case r < 90:
		if len(m.tasks) > 0 {
			m.removeTask(rng.Intn(len(m.tasks)))
		}
	case r < 93:
		if gi := m.liveGroup(rng); gi >= 0 {
			m.removeGroup(gi)
		}
	case r < 97: // mid-run reads (settle-on-read is under test)
		if gi := m.liveGroup(rng); gi >= 0 {
			ge, gr := m.groups[gi].e, m.groups[gi].r
			if rng.Intn(2) == 0 {
				if a, b := m.takeWindow(gi); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					m.t.Fatalf("window diverged on %s: %v vs %v", ge.Name, a, b)
				}
			} else {
				ge.Usage()
				gr.Usage()
			}
		}
	default: // write burst: many dirty marks in one tick gap
		for n := 0; n < 20; n++ {
			if gi := m.liveGroup(rng); gi >= 0 {
				sh := sharesPalette[rng.Intn(len(sharesPalette))]
				m.oracle.SetShares(m.groups[gi].e, sh)
				m.rep.SetShares(m.groups[gi].r, sh)
			}
		}
	}
	return false
}

// teamGammas are the team sensitivities the mirror draws from: 0 (the
// group's Gamma) and the jvm mutator and GC values.
var teamGammas = []float64{0, 0.15, 0.85}

func pickCallback(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0 // plain task: deferrable accounting
	case 1:
		return 23 // callback that blocks a member every 23rd call
	default:
		return 1 << 30 // callback that never blocks
	}
}

// seedMirror builds a representative starting topology: flat groups,
// one two-level subtree, a spread of quotas and shares, some runnable.
func seedMirror(m *mirror, rng *rand.Rand, flat int) {
	for i := 0; i < flat; i++ {
		gi := m.newGroup(fmt.Sprintf("seed%d", i))
		q := quotaPalette[rng.Intn(len(quotaPalette))]
		m.oracle.SetQuota(m.groups[gi].e, q[0], q[1])
		m.rep.SetQuota(m.groups[gi].r, q[0], q[1])
		ti := m.newTask(gi, "t", pickCallback(rng))
		if i%2 == 0 {
			m.setRunnable(ti, true)
		}
	}
	p := m.newGroup("seedp")
	for c := 0; c < 3; c++ {
		ci := m.newChild(p, fmt.Sprintf("seedpc%d", c))
		ti := m.newTask(ci, "t", pickCallback(rng))
		if c != 1 {
			m.setRunnable(ti, true)
		}
	}
	q := quotaPalette[4]
	m.oracle.SetQuota(m.groups[p].e, q[0], q[1])
	m.rep.SetQuota(m.groups[p].r, q[0], q[1])
}

// TestRepairMirrorsEagerLockstep is the core property test: random op
// sequences against mirrored schedulers, full observable-state equality
// asserted after every tick.
func TestRepairMirrorsEagerLockstep(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newMirror(t, 4)
			seedMirror(m, rng, 6+int(seed)%5)
			m.check("after seed")
			for op := 0; op < 500; op++ {
				if m.step(rng) {
					m.check(fmt.Sprintf("op %d (tick %d)", op, m.rep.ticks))
				}
			}
			m.check("final")
		})
	}
}

// TestRepairMirrorsEagerDeferred runs with almost no mid-run reads or
// comparisons, so the repair arm accumulates long deferred-accounting
// windows (hundreds of ticks) before one settling comparison at the
// end — the regime the scale benchmark lives in.
func TestRepairMirrorsEagerDeferred(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newMirror(t, 4)
			seedMirror(m, rng, 8)
			ticks := 0
			for op := 0; op < 1200; op++ {
				if m.step(rng) {
					ticks++
					if ticks%256 == 0 {
						m.check(fmt.Sprintf("periodic at tick %d", m.rep.ticks))
					}
				}
			}
			m.check("final")
		})
	}
}

// TestTickLengthIsFixed: the deferred replay assumes one tick length,
// so the first Tick fixes it and a Tick with another dt panics.
func TestTickLengthIsFixed(t *testing.T) {
	s := NewScheduler(2)
	s.Tick(time.Millisecond, time.Millisecond)
	s.Tick(2*time.Millisecond, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Tick with a new dt did not panic")
		}
	}()
	s.Tick(4*time.Millisecond, 2*time.Millisecond)
}

// TestRepairSkipIdle checks an idle span: all tasks blocked, ticks with
// nothing runnable on both arms, then resumed activity.
func TestRepairSkipIdle(t *testing.T) {
	m := newMirror(t, 4)
	// Plain tasks and one team that never blocks (an eager group): a
	// self-blocking callback would desync the manual block step below.
	for i := 0; i < 6; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		every := 0
		if i == 4 {
			every = 1 << 30
		}
		ti := m.newTask(gi, "t", every)
		m.setRunnable(ti, true)
	}
	// g0's own quota binds, so it carries throttle state into the idle
	// span.
	m.oracle.SetQuota(m.groups[0].e, 50_000, 100_000)
	m.rep.SetQuota(m.groups[0].r, 50_000, 100_000)
	for i := 0; i < 40; i++ {
		m.tick()
	}
	m.check("before idle")
	for ti := range m.tasks {
		m.setRunnable(ti, false)
	}
	m.tick() // allocation collapses to zero
	m.check("all blocked")
	for i := 0; i < 25; i++ {
		m.tick()
		m.check("idle tick")
	}
	for ti := range m.tasks {
		if ti%2 == 0 {
			m.setRunnable(ti, true)
		}
	}
	for i := 0; i < 40; i++ {
		m.tick()
		m.check("post-idle tick")
	}

	// The tick that sees the blocks repairs the memo down to the idle
	// one (no rate, empty lists); the idle tick after it is quiet.
	for ti := range m.tasks {
		m.setRunnable(ti, false)
	}
	m.tick()
	m.check("tick after the blocks")
	repairs := m.rep.Trace.Count(telemetry.CtrTickRepairs)
	m.tick() // nothing runnable or queued: a quiet tick on the repair arm
	m.check("idle tick after the blocks")
	if m.rep.Trace.Count(telemetry.CtrTickRepairs) != repairs {
		t.Fatal("the tick after the blocks left repair work queued")
	}
	for i := 0; i < 9; i++ {
		m.tick()
		m.check("idle tick")
	}
	m.setRunnable(1, true)
	for i := 0; i < 5; i++ {
		m.tick()
		m.check("after the second idle span")
	}
}

// TestEmptyMemoIsExact holds a fresh scheduler's memo to the oracle:
// before any tick, through a first tick with nothing runnable (a quiet
// tick on the repair arm, so nothing recomputes the slack), through an
// idle span, and through the first wake-up.
func TestEmptyMemoIsExact(t *testing.T) {
	m := newMirror(t, 4)
	for i := 0; i < 3; i++ {
		m.newTask(m.newGroup(fmt.Sprintf("g%d", i)), "t", 0)
	}
	m.check("before the first tick")
	if sl := m.rep.SlackLast(); sl != 4 {
		t.Fatalf("slack %v before the first tick, want all 4 CPUs", sl)
	}
	m.tick()
	m.check("first tick, nothing runnable")
	for i := 0; i < 5; i++ {
		m.tick()
		m.check("idle tick")
	}
	m.setRunnable(0, true)
	m.tick()
	m.check("first wake-up")
	if n := m.rep.Trace.Count(telemetry.CtrTickRepairs); n != 1 {
		t.Fatalf("%d repair ticks, want 1 (the wake-up)", n)
	}
}

// TestRepairRemoveWhileDirty covers the bookkeeping edge case of a
// group (and a whole subtree) removed while sitting in the dirty set:
// the queued index must neither survive compaction pointing at the
// wrong group nor suppress the repair of surviving groups.
func TestRepairRemoveWhileDirty(t *testing.T) {
	m := newMirror(t, 4)
	a := m.newGroup("a")
	b := m.newGroup("b")
	p := m.newGroup("p")
	c0 := m.newChild(p, "c0")
	c1 := m.newChild(p, "c1")
	for _, gi := range []int{a, b, c0, c1} {
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
	}
	for i := 0; i < 10; i++ {
		m.tick()
	}
	m.check("steady")

	// Dirty a (shares), dirty c0 (quota), then remove a and the whole
	// subtree p — with a's slot compacted away, b's and c1's indices
	// shift while c0's dirty entry must vanish.
	m.oracle.SetShares(m.groups[a].e, 2048)
	m.rep.SetShares(m.groups[a].r, 2048)
	m.oracle.SetQuota(m.groups[c0].e, 50_000, 100_000)
	m.rep.SetQuota(m.groups[c0].r, 50_000, 100_000)
	if len(m.rep.dirty) == 0 {
		t.Fatal("expected dirty marks before removal")
	}
	m.removeGroup(a)
	m.removeGroup(p)
	m.tick()
	m.check("after remove-while-dirty")
	for i := 0; i < 5; i++ {
		m.tick()
		m.check("steady after removal")
	}
}

// TestRepairActiveCrossingZero covers a leaf's runnable count crossing
// zero in both directions: the group must leave and re-enter the active
// (and water-fill) sets with exact list maintenance.
func TestRepairActiveCrossingZero(t *testing.T) {
	m := newMirror(t, 2)
	var tasks []int
	for i := 0; i < 5; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
		tasks = append(tasks, ti)
	}
	for i := 0; i < 8; i++ {
		m.tick()
	}
	m.check("all active")
	m.setRunnable(tasks[2], false) // g2 leaves active
	m.tick()
	m.check("g2 idle")
	if got := m.rep.active; len(got) != 4 {
		t.Fatalf("active after block: %v", got)
	}
	m.setRunnable(tasks[2], true) // and returns
	m.tick()
	m.check("g2 back")
	if got := m.rep.active; len(got) != 5 {
		t.Fatalf("active after wake: %v", got)
	}
}

// TestRepairAfterStorm holds the two widest repairs to the oracle: the
// first tick, which repairs every group woken before it, and a storm
// that dirties every group at once. Both are repair ticks, and so is a
// single change after the storm; the quiet ticks between leave the
// repair counter alone.
func TestRepairAfterStorm(t *testing.T) {
	m := newMirror(t, 8)
	const n = 128
	var gis []int
	for i := 0; i < n; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
		gis = append(gis, gi)
	}
	m.check("before the first tick")
	tr := m.rep.Trace
	tick := func(ctx string, repairs uint64) {
		t.Helper()
		m.tick()
		m.check(ctx)
		if got := tr.Count(telemetry.CtrTickRepairs); got != repairs {
			t.Fatalf("%s: %d repair ticks, want %d", ctx, got, repairs)
		}
	}
	tick("first tick", 1)
	for i := 0; i < 3; i++ {
		tick("quiet", 1)
	}
	for i := 0; i < n; i++ { // storm: every group dirty
		m.oracle.SetShares(m.groups[gis[i]].e, 2048)
		m.rep.SetShares(m.groups[gis[i]].r, 2048)
	}
	if len(m.rep.dirty) != n {
		t.Fatalf("storm queued %d of %d groups", len(m.rep.dirty), n)
	}
	tick("storm", 2)

	// A small change afterwards repairs that group alone.
	m.oracle.SetShares(m.groups[gis[3]].e, 4096)
	m.rep.SetShares(m.groups[gis[3]].r, 4096)
	tick("single change", 3)
	for i := 0; i < 6; i++ {
		tick("steady after the storm", 3)
	}
	if rb := tr.Count(telemetry.CtrTickRebuilds); rb != 0 {
		t.Fatalf("the production scheduler rebuilt %d times", rb)
	}
}

// TestRepairLongDeferralSettlesOnRead pins the deferred-accounting
// regime directly: hundreds of untouched ticks, then one read must
// replay them bit-identically.
func TestRepairLongDeferralSettlesOnRead(t *testing.T) {
	m := newMirror(t, 4)
	gi := m.newGroup("g")
	ti := m.newTask(gi, "t", 0)
	m.setRunnable(ti, true)
	// A throttled companion so throttledDur replay is exercised too.
	gj := m.newGroup("h")
	tj := m.newTask(gj, "t", 0)
	m.setRunnable(tj, true)
	m.oracle.SetQuota(m.groups[gj].e, 25_000, 100_000)
	m.rep.SetQuota(m.groups[gj].r, 25_000, 100_000)

	for i := 0; i < 700; i++ {
		m.tick()
	}
	if settled := m.rep.gSettled[m.groups[gi].r.schedIdx]; settled == m.rep.ticks {
		t.Fatalf("plain group was not deferred (settled=%d ticks=%d)", settled, m.rep.ticks)
	}
	m.check("after 700 deferred ticks")
}

// TestCallbackBlockTakesEffectNextTick pins the next-tick rule in both
// tick regimes and in the oracle: a team callback that blocks its
// group's only task during a tick's walk leaves that tick's allocation
// alone, and from the next tick on the group gets nothing while its
// busy sibling gets both CPUs. The load average's input counts the
// block at the end of the tick in which it happens. The blocking tick
// is a quiet tick, a repair of one group, a storm repair of every
// group, or the scheduler's first tick.
func TestCallbackBlockTakesEffectNextTick(t *testing.T) {
	for _, regime := range []string{"quiet", "repair", "storm", "first"} {
		for _, oracle := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/oracle=%v", regime, oracle), func(t *testing.T) {
				testCallbackBlock(t, regime, oracle)
			})
		}
	}
}

func testCallbackBlock(t *testing.T, regime string, oracle bool) {
	s := NewScheduler(2)
	if oracle {
		UseRebuildOracle(s)
	}
	tr := s.Trace
	a := s.NewGroup("a")
	block := false
	var self *Task
	tm := s.NewTeam(a, 0, func(now time.Duration, n int, useful, raw units.CPUSeconds) {
		if block {
			block = false
			s.SetRunnable(self, false)
		}
	})
	self = s.NewTeamTask(tm, "a0")
	s.SetRunnable(self, true)
	b := newBusyGroup(s, "b", 4)
	// Idle groups the storm regime dirties alongside a and b, without
	// moving any rate.
	var idle []*Task
	for i := 0; i < 64; i++ {
		idle = append(idle, s.NewTask(s.NewGroup(fmt.Sprintf("idle%d", i)), "t"))
	}
	var now time.Duration
	step := func() {
		now += tick
		s.Tick(now, tick)
	}
	if regime != "first" {
		for i := 0; i < 5; i++ {
			step()
		}
	}

	// b's shares double, so a runs at 2/3 CPU and b at 4/3 in the tick
	// whose walk blocks a's task.
	s.SetShares(b, 2*DefaultShares)
	switch regime {
	case "quiet":
		for i := 0; i < 3; i++ {
			step()
		}
	case "storm":
		s.SetCpuset(a, a.CpusetN)
		for _, task := range idle {
			s.SetRunnable(task, true)
			s.SetRunnable(task, false)
		}
		if len(s.dirty) != len(s.groups) {
			t.Fatalf("storm queued %d of %d groups", len(s.dirty), len(s.groups))
		}
	}
	repairs := tr.Count(telemetry.CtrTickRepairs)
	block = true
	step()
	if self.Runnable() {
		t.Fatal("the callback did not block its task")
	}
	if !oracle {
		wantRepairs := repairs + 1
		if regime == "quiet" {
			wantRepairs = repairs
		}
		if got := tr.Count(telemetry.CtrTickRepairs); got != wantRepairs || tr.Count(telemetry.CtrTickRebuilds) != 0 {
			t.Fatalf("the blocking tick was not a %s tick: %d repairs (want %d), %d rebuilds",
				regime, got, wantRepairs, tr.Count(telemetry.CtrTickRebuilds))
		}
	}
	if r := a.LastRate(); math.Abs(r-2.0/3) > 1e-9 {
		t.Fatalf("a ran at %v in the blocking tick, want 2/3", r)
	}
	if s.loadContrib != 4 {
		t.Fatalf("load input %v at the end of the blocking tick, want 4 (b's tasks only)", s.loadContrib)
	}

	usage := a.Usage()
	for i := 0; i < 100; i++ {
		step()
		if ra, rb := a.LastRate(), b.LastRate(); ra != 0 || math.Abs(rb-2) > 1e-9 {
			t.Fatalf("tick %d after the block: a at %v, b at %v; want 0 and 2", i+1, ra, rb)
		}
		if sl := s.SlackLast(); sl != 0 {
			t.Fatalf("tick %d after the block: slack %v with b's tasks waiting", i+1, sl)
		}
	}
	if got := a.Usage(); got != usage {
		t.Fatalf("a accrued %v CPU-s after its only task blocked", got-usage)
	}
}

// TestRepairFillsKeepGrownScratch pins the fill scratch: a repair's top
// fill and child refills borrow scratchTop and scratchChild, and must
// keep them once grown. The fleet here grows in small batches after the
// first tick, so the fill lists outgrow whatever the first tick sized;
// from then on a repair that reruns the top fill and refills a pod
// (a top-level shares write and a child's) allocates nothing.
func TestRepairFillsKeepGrownScratch(t *testing.T) {
	s := NewScheduler(8)
	pod := s.NewGroup("pod")
	first := newBusyGroup(s, "g0", 1)
	s.Tick(tick, tick)
	var now time.Duration = tick
	var child *Group
	for batch := 0; batch < 16; batch++ {
		for i := 0; i < 4; i++ {
			newBusyGroup(s, fmt.Sprintf("g%d-%d", batch, i), 1)
		}
		child = s.NewChildGroup(pod, fmt.Sprintf("c%d", batch))
		s.SetRunnable(s.NewTask(child, "t"), true)
		now += tick
		s.Tick(now, tick)
	}
	if len(s.activeTop) < 64 || len(pod.children) < 16 {
		t.Fatalf("fleet did not grow: %d fill participants, %d pod children", len(s.activeTop), len(pod.children))
	}
	shares := int64(DefaultShares)
	allocs := testing.AllocsPerRun(100, func() {
		shares ^= 1
		s.SetShares(first, shares)
		s.SetShares(child, shares)
		now += tick
		s.Tick(now, tick)
	})
	if allocs != 0 {
		t.Fatalf("a top-fill repair allocates %v times per tick, want 0", allocs)
	}
}
