package cfs

import (
	"fmt"
	"math"
	"testing"
)

// FuzzRepairMirror decodes a byte string into scheduler operations,
// applies each to a repair scheduler and to the eager oracle through the
// mirror harness, and compares every observable after every tick, as
// TestRepairMirrorsEagerLockstep does for its random op streams.
//
// Encoding: the first byte picks the host size (1-8 CPUs). Each op is
// one opcode byte followed by up to three argument bytes (missing bytes
// read as zero); opcodes cover group and child-group creation, removal,
// shares/quota/cpuset writes, plain tasks, teams of one and of several
// members (whose callbacks may block a member every k-th call), new
// members for existing teams, teams whose callbacks wake a task in
// another group or write a quota on one, SetRunnable, Tick, idle spans
// of ticks, and reads: usage, the view round's
// settle pass, and its window read by index. After every op, the active
// list must be exactly the groups with a positive rate.
func FuzzRepairMirror(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{3, opGroup, opTask, 0, 0, opRunnable, 0, opTick, 3},
		{3, opGroup, opChild, 0, opChild, 0, opTask, 1, 5, opTask, 2, 0,
			opRunnable, 0, opRunnable, 1, opQuota, 0, 4, opTick, 3, opRead, 1, 1, opTick, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048] // bound the work per input
		}
		ncpu, ops := decodeMirrorOps(data)
		runMirrorOps(t, ncpu, ops)
	})
}

// Fuzz opcodes (taken modulo opCount). New opcodes go at the end, so
// committed seeds written with fewer opcodes decode unchanged.
const (
	opGroup    = iota // new top-level group
	opChild           // arg: parent; new child group under a task-free top-level group
	opRemove          // arg: group; remove it (and its children)
	opRmTask          // arg: task; remove it
	opShares          // args: group, palette index
	opQuota           // args: group, palette index
	opCpuset          // args: group, mask size
	opTask            // args: leaf, callback kind (0 plain task, else a team of one: 255 never blocks, else blocks every arg-th call)
	opRunnable        // arg: task; toggle runnable
	opTick            // arg: tick count - 1 (low two bits)
	opIdleSpan        // arg: span in ticks - 1 (mod 32); ticks only when nothing is runnable
	opDt              // arg: ignored; a retired no-op (the tick length is fixed)
	opRead            // args: group, accessor
	opTeam            // args: leaf, members-1 (low 2 bits) and gamma index (higher bits), block period (0 or 255 never blocks)
	opJoin            // args: team, wake the new member (low bit)
	opWaker           // args: leaf, wake period (0 reads as 1), first task to try; a team of one whose callback wakes a task in another group
	opLimiter         // args: leaf, write period (0 reads as 1), first quota and group to try; a team of one whose callback writes a quota (see newLimiter)
	opCount
)

// Growth caps keep one fuzz input's work bounded. The group cap leaves
// room for dirty storms over more than a hundred groups.
const (
	fuzzMaxGroups = 160
	fuzzMaxTasks  = 256
)

// mirrorOp is one decoded fuzz operation.
type mirrorOp struct {
	code, a, b, c int
}

// opArgs is the number of argument bytes each opcode consumes.
var opArgs = [opCount]int{
	opGroup: 0, opChild: 1, opRemove: 1, opRmTask: 1, opShares: 2, opQuota: 2,
	opCpuset: 2, opTask: 2, opRunnable: 1, opTick: 1, opIdleSpan: 1, opDt: 1, opRead: 2,
	opTeam: 3, opJoin: 2, opWaker: 3, opLimiter: 3,
}

// decodeMirrorOps splits a fuzz input into the host size and its op
// sequence; bytes missing at the end read as zero.
func decodeMirrorOps(data []byte) (ncpu int, ops []mirrorOp) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		v := data[i]
		i++
		return int(v)
	}
	ncpu = 1 + next()%8
	for i < len(data) {
		o := mirrorOp{code: next() % opCount}
		if opArgs[o.code] > 0 {
			o.a = next()
		}
		if opArgs[o.code] > 1 {
			o.b = next()
		}
		if opArgs[o.code] > 2 {
			o.c = next()
		}
		ops = append(ops, o)
	}
	return ncpu, ops
}

// blockPeriod maps a callback-kind byte to the mirror's block period:
// 255 never blocks, any other value blocks a member on every arg-th call.
func blockPeriod(arg int) int {
	if arg == 255 {
		return 1 << 30
	}
	return arg
}

// runMirrorOps applies ops to a fresh mirror and fails t on the first
// divergence between the two arms.
func runMirrorOps(t *testing.T, ncpu int, ops []mirrorOp) {
	m := newMirror(t, ncpu)
	// group returns the live group an argument byte names, or -1.
	group := func(arg int) int {
		if len(m.groups) == 0 {
			return -1
		}
		gi := arg % len(m.groups)
		if m.groups[gi].e.removed {
			return -1
		}
		return gi
	}
	for k, o := range ops {
		switch o.code {
		case opGroup:
			if len(m.groups) < fuzzMaxGroups {
				m.newGroup(fmt.Sprintf("g%d", len(m.groups)))
			}
		case opChild:
			p := group(o.a)
			if p < 0 || len(m.groups) >= fuzzMaxGroups {
				break
			}
			if pg := m.groups[p].e; pg.parent != nil || len(pg.tasks) > 0 {
				break
			}
			m.newChild(p, fmt.Sprintf("g%d", len(m.groups)))
		case opRemove:
			if gi := group(o.a); gi >= 0 {
				m.removeGroup(gi)
			}
		case opRmTask:
			if len(m.tasks) > 0 {
				m.removeTask(o.a % len(m.tasks))
			}
		case opShares:
			if gi := group(o.a); gi >= 0 {
				sh := sharesPalette[o.b%len(sharesPalette)]
				m.oracle.SetShares(m.groups[gi].e, sh)
				m.rep.SetShares(m.groups[gi].r, sh)
			}
		case opQuota:
			if gi := group(o.a); gi >= 0 {
				q := quotaPalette[o.b%len(quotaPalette)]
				m.oracle.SetQuota(m.groups[gi].e, q[0], q[1])
				m.rep.SetQuota(m.groups[gi].r, q[0], q[1])
			}
		case opCpuset:
			if gi := group(o.a); gi >= 0 {
				m.oracle.SetCpuset(m.groups[gi].e, o.b%5)
				m.rep.SetCpuset(m.groups[gi].r, o.b%5)
			}
		case opTask:
			gi := group(o.a)
			if gi < 0 || len(m.groups[gi].e.children) > 0 || len(m.tasks) >= fuzzMaxTasks {
				break
			}
			m.newTask(gi, fmt.Sprintf("t%d", len(m.tasks)), blockPeriod(o.b))
		case opRunnable:
			if len(m.tasks) > 0 {
				ti := o.a % len(m.tasks)
				m.setRunnable(ti, !m.tasks[ti].e.runnable)
			}
		case opTick:
			for n := 1 + o.a%4; n > 0; n-- {
				m.tick()
				m.check(fmt.Sprintf("op %d: tick %d", k, m.rep.ticks))
			}
		case opIdleSpan:
			if m.oracle.runnableNow != 0 {
				break
			}
			for n := 1 + o.a%32; n > 0; n-- {
				m.tick()
				m.check(fmt.Sprintf("op %d: idle tick %d", k, m.rep.ticks))
			}
		case opTeam:
			gi := group(o.a)
			n := 1 + o.b&3
			if gi < 0 || len(m.groups[gi].e.children) > 0 || len(m.tasks)+n > fuzzMaxTasks {
				break
			}
			every := o.c
			if every == 0 {
				every = 255
			}
			tm := m.newTeam(gi, teamGammas[(o.b>>2)%len(teamGammas)], blockPeriod(every))
			for ; n > 0; n-- {
				m.setRunnable(m.joinTeam(tm, fmt.Sprintf("t%d", len(m.tasks))), true)
			}
		case opJoin:
			if len(m.teams) == 0 || len(m.tasks) >= fuzzMaxTasks {
				break
			}
			tm := o.a % len(m.teams)
			if g := m.groups[m.teams[tm].group].e; g.removed || len(g.children) > 0 {
				break
			}
			ti := m.joinTeam(tm, fmt.Sprintf("t%d", len(m.tasks)))
			if o.b&1 != 0 {
				m.setRunnable(ti, true)
			}
		case opWaker:
			gi := group(o.a)
			if gi < 0 || len(m.groups[gi].e.children) > 0 || len(m.tasks) >= fuzzMaxTasks {
				break
			}
			m.setRunnable(m.joinTeam(m.newWaker(gi, max(o.b, 1), o.c), fmt.Sprintf("t%d", len(m.tasks))), true)
		case opLimiter:
			gi := group(o.a)
			if gi < 0 || len(m.groups[gi].e.children) > 0 || len(m.tasks) >= fuzzMaxTasks {
				break
			}
			m.setRunnable(m.joinTeam(m.newLimiter(gi, max(o.b, 1), o.c), fmt.Sprintf("t%d", len(m.tasks))), true)
		case opDt:
			// Retired: a no-op that still consumes its argument byte, so
			// every committed input decodes to the op stream it was
			// written with.
		case opRead:
			gi := group(o.a)
			if gi < 0 {
				break
			}
			ge, gr := m.groups[gi].e, m.groups[gi].r
			switch o.b % 4 {
			case 0:
				ge.Usage()
				gr.Usage()
			case 1:
				if a, b := m.takeWindow(gi); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					t.Fatalf("op %d: window diverged on %s: %v vs %v", k, ge.Name, a, b)
				}
			case 2: // the view round's settle pass alone
				m.oracle.SettleWindows()
				m.rep.SettleWindows()
			default:
				ge.ThrottledTime()
				gr.ThrottledTime()
			}
		}
		m.checkActive(fmt.Sprintf("op %d", k))
	}
	m.check("final")
}
