package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"
)

// FuzzClockOrder drives the clock and a reference model with the same
// decoded op sequence and requires identical behaviour: the sequence of
// (timer id, now) firings, Reset's result, and the number of queued
// timers after every op. The model keeps pending timers in a slice
// sorted by (when, seq), so it shares nothing with the calendar queue.
// Besides the quarter-tick delays and the runs of steps of the plain
// ops, the lap op schedules, resets and steps whole laps of the wheel
// ahead, so timers share buckets with timers laps nearer and wait in
// them for their lap to come round. A one-shot is
// either an After Timer or an Alarm embedded in a handler struct (Arm),
// picked by a bit the model ignores, so both forms interleave in one
// queue and callbacks Stop and Reset alarms from inside Fire. Alarms are
// Warmers, so a due batch holding two or more runs the warm pass first
// and the model checks the firings that follow it. The clock
// starts at its smallest wheel, so an input that keeps more timers
// pending than there are buckets grows the wheel mid-run.
func FuzzClockOrder(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 4, 0, 0, 4, 0, 5},                             // two one-shots, same deadline: FIFO
		{1, 3, 0, 2, 0, 5, 5, 5},                          // periodic, then stopped
		{0, 8, 0, 3, 0, 2, 5, 5, 5},                       // Reset of a pending timer
		{0, 1, 0, 5, 3, 0, 4, 5, 5},                       // Reset of a fired timer
		{0, 6, 0, 2, 0, 3, 0, 1, 5, 5},                    // Reset of a stopped timer
		{1, 2, 1, 6, 40},                                  // periodic stops itself, across a run of steps
		{1, 4, 13, 0, 2, 0, 5, 5, 5, 5},                   // periodic resets itself
		{0, 4, 2, 0, 4, 0, 5, 5},                          // callback stops another timer
		{1, 1, 19, 6, 12, 4, 0, 9, 6, 30},                 // callback spawns same-instant timers; retired op 4
		{1, 3, 0, 1, 5, 0, 0, 7, 3, 6, 9, 4, 1, 2, 6, 63}, // mixed
		{0, 20, 0, 0, 4, 0, 5},                            // Alarm and Timer, same deadline: FIFO across forms
		{0, 17, 13, 5, 5, 5, 5, 5, 5},                     // Alarm re-arms itself from Fire
		{0, 17, 13, 0, 6, 2, 5, 5, 5, 5, 5, 5, 5},         // Timer callback stops a self-re-arming Alarm
		{0, 18, 1, 3, 0, 0, 5, 5},                         // Alarm stops itself in Fire, then is Reset
		{0, 20, 9, 5, 5},                                  // Alarm spawns a same-instant Timer
		{0, 20, 0, 0, 20, 0, 5},                           // two Alarms, same deadline: a warmed batch
		{4, 164, 0x33, 4, 130, 8},                         // an Alarm two laps out stays queued across a lap-long run of steps
		growthSeed(),                                      // more pending than buckets: the wheel grows mid-run
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, data, &realClock{c: NewClock(4 * quantum)}, &modelClock{tick: 4 * quantum})
	})
}

const (
	// quantum is the fuzz time unit: a quarter tick, so deadlines also
	// fall between tick boundaries.
	quantum = 250 * time.Microsecond
	// lap is one turn of the clock's wheel at its largest, several
	// turns of a smaller one.
	lap = maxWheel * 4 * quantum
	// maxFirings bounds one input's cost: a callback that fires past it
	// stops its timer, so a lap-long run of steps over quarter-tick
	// periodic timers ends. No committed seed reaches it.
	maxFirings = 1 << 14
)

// firing is one observed timer callback.
type firing struct {
	id  int
	now Time
}

// clockUnderTest is the surface both the real clock and the model expose
// to the op interpreter. Timers are named by creation index.
type clockUnderTest interface {
	after(d time.Duration, fn func(Time)) int
	arm(d time.Duration, fn func(Time)) int
	every(p time.Duration, fn func(Time)) int
	stop(id int)
	reset(id int, d time.Duration) bool
	step()
	now() Time
	pending() int
	timers() int
}

// action is what a timer's callback does besides recording its firing.
type action struct {
	kind int // 0 none, 1 stop self, 2 stop another, 3 reset self, 4 spawn a one-shot
	arg  int
}

func decodeAction(b byte) action { return action{kind: int(b % 5), arg: int(b / 5)} }

// harness runs one clock implementation and records its firings.
type harness struct {
	clk   clockUnderTest
	fired []firing
}

func (h *harness) callback(id *int, a action) func(Time) {
	return func(now Time) {
		h.fired = append(h.fired, firing{*id, now})
		if len(h.fired) >= maxFirings {
			h.clk.stop(*id)
			return
		}
		switch a.kind {
		case 1:
			h.clk.stop(*id)
		case 2:
			h.clk.stop(a.arg % h.clk.timers())
		case 3:
			h.clk.reset(*id, time.Duration(1+a.arg%16)*quantum)
		case 4:
			// Spawned timers carry no action, so chains stay finite;
			// a zero delay fires within the same Step.
			child := new(int)
			*child = h.clk.after(time.Duration(a.arg%4)*quantum, h.callback(child, action{}))
		}
	}
}

// schedule creates a timer whose callback records its firing and runs
// a: kind 0 After, 1 Every, 2 Arm.
func (h *harness) schedule(kind int, d time.Duration, a action) {
	id := new(int)
	switch kind {
	case 0:
		*id = h.clk.after(d, h.callback(id, a))
	case 1:
		*id = h.clk.every(d, h.callback(id, a))
	default:
		*id = h.clk.arm(d, h.callback(id, a))
	}
}

// growthSeed schedules 96 one-shots before the first Step, alternating
// Timers and Alarms over deadlines a quarter tick to four ticks out,
// each fifth stopping another timer and each seventh spawning one, then
// steps through them: the clock's wheel grows while timers sit in its
// buckets and in the due batch.
func growthSeed() []byte {
	var b []byte
	for i := 0; i < 96; i++ {
		act := byte(0)
		switch {
		case i%5 == 4:
			act = 2 + 5*byte(i/2)
		case i%7 == 6:
			act = 4 + 5*byte(i%4)
		}
		b = append(b, 0, byte(1+i%15)|byte(i&1)<<4, act)
	}
	return append(b, 5, 5, 6, 9, 5, 6, 63)
}

// TestGrowthSeedGrowsTheWheel keeps growthSeed doing what its comment
// says: the clock under fuzz ends it on a grown wheel.
func TestGrowthSeedGrowsTheWheel(t *testing.T) {
	rc := &realClock{c: NewClock(4 * quantum)}
	runOps(t, growthSeed(), rc, &modelClock{tick: 4 * quantum})
	if n := len(rc.c.heads); n <= minWheel {
		t.Fatalf("growth seed left the wheel at %d buckets", n)
	}
}

// TestFuzzSeedsRunTheWarmPass keeps the warm pass under the fuzzer's
// reference check: committed seeds put two or more Alarms in one due
// batch, so their firings are compared with the model after a warm pass.
func TestFuzzSeedsRunTheWarmPass(t *testing.T) {
	for _, seed := range [][]byte{
		{0, 20, 0, 0, 20, 0, 5}, // two Alarms, same deadline
		growthSeed(),
	} {
		rc := &realClock{c: NewClock(4 * quantum)}
		runOps(t, seed, rc, &modelClock{tick: 4 * quantum})
		if rc.warms == 0 {
			t.Fatalf("seed %v ran no Warm", seed)
		}
	}
}

func runOps(t *testing.T, data []byte, impls ...clockUnderTest) {
	hs := make([]*harness, len(impls))
	for i, c := range impls {
		hs[i] = &harness{clk: c}
	}
	pos, checked := 0, 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	// The firing budget keeps one input's cost bounded: periodic timers
	// with quarter-tick periods fire up to 64 times per run of op 6.
	for ops := 0; pos < len(data) && ops < 256 && len(hs[0].fired) < 2048; ops++ {
		op := next() % 7
		var desc string
		var results []bool
		switch op {
		case 0, 1:
			db := next()
			d := time.Duration(db%16) * quantum
			a := decodeAction(next())
			if op == 1 {
				d += quantum
			}
			// Bit 4 of a one-shot's delay byte arms an Alarm instead.
			kind := int(op)
			if op == 0 && db&16 != 0 {
				kind = 2
			}
			desc = fmt.Sprintf("op %d: After/Every/Arm[%d](%v, %+v)", ops, kind, d, a)
			for _, h := range hs {
				h.schedule(kind, d, a)
			}
		case 2, 3:
			b, arg := next(), next()
			n := hs[0].clk.timers()
			if n == 0 {
				continue
			}
			id := int(b) % n
			if op == 2 {
				desc = fmt.Sprintf("op %d: Stop(%d)", ops, id)
				for _, h := range hs {
					h.clk.stop(id)
				}
			} else {
				d := time.Duration(arg%16) * quantum
				desc = fmt.Sprintf("op %d: Reset(%d, %v)", ops, id, d)
				for _, h := range hs {
					results = append(results, h.clk.reset(id, d))
				}
			}
		case 4:
			b, arg := next(), next()
			if b < 128 {
				// Retired (it set a timer's period): a no-op that
				// still consumes its two bytes. Every committed input
				// that reaches op 4 carries a first byte below 128, so
				// each decodes to the op stream it was written with.
				continue
			}
			desc, results = lapOp(ops, hs, b, arg)
		case 5:
			desc = fmt.Sprintf("op %d: Step", ops)
			for _, h := range hs {
				h.clk.step()
			}
		case 6:
			to := hs[0].clk.now() + time.Duration(next()%64)*quantum
			desc = fmt.Sprintf("op %d: StepTo(%v)", ops, to)
			stepTo(hs, to)
		}
		want := hs[0]
		for i, h := range hs[1:] {
			if len(results) > 0 && results[i+1] != results[0] {
				t.Fatalf("%s: Reset reported pending=%v, model %v", desc, results[0], results[i+1])
			}
			if !slices.Equal(h.fired[checked:], want.fired[checked:]) {
				t.Fatalf("%s: firings diverge\n clock: %v\n model: %v", desc, want.fired, h.fired)
			}
			if want.clk.pending() != h.clk.pending() {
				t.Fatalf("%s: pending timers = %d, model %d", desc, want.clk.pending(), h.clk.pending())
			}
		}
		checked = len(want.fired)
	}
}

// stepTo steps every harness, tick by tick, to the first tick boundary
// at or after to: op 6 and the lap op's span case.
func stepTo(hs []*harness, to Time) {
	for hs[0].clk.now() < to {
		for _, h := range hs {
			h.clk.step()
		}
	}
}

// lapOp runs the lap op (op 4 with first byte b >= 128) on every
// harness and returns its description and any Reset results. Bits 0-1
// of b pick After, Every, a run of steps or Reset; bits 2-4 the number
// of laps (1-8) in the delay, period or span; bit 5, for After, an Alarm
// instead; arg the quarter-tick remainder and, for After and Every, the
// callback's action (high nibble) or, for Reset, the timer.
func lapOp(ops int, hs []*harness, b, arg byte) (string, []bool) {
	laps := time.Duration(1+b>>2&7) * lap
	var results []bool
	switch b & 3 {
	case 0, 1:
		d := laps + time.Duration(arg%16)*quantum
		a := decodeAction(arg >> 4)
		// Bit 5 of a one-shot's b arms an Alarm instead.
		kind := int(b & 3)
		if kind == 0 && b&32 != 0 {
			kind = 2
		}
		for _, h := range hs {
			h.schedule(kind, d, a)
		}
		return fmt.Sprintf("op %d: After/Every/Arm[%d](%v, %+v)", ops, kind, d, a), nil
	case 2:
		to := hs[0].clk.now() + laps + time.Duration(arg%64)*quantum
		stepTo(hs, to)
		return fmt.Sprintf("op %d: StepTo(%v)", ops, to), nil
	default:
		n := hs[0].clk.timers()
		if n == 0 {
			return fmt.Sprintf("op %d: no-op", ops), nil
		}
		id := int(arg) % n
		d := laps + time.Duration(b>>5&3)*quantum
		for _, h := range hs {
			results = append(results, h.clk.reset(id, d))
		}
		return fmt.Sprintf("op %d: Reset(%d, %v)", ops, id, d), results
	}
}

// realClock adapts *Clock to clockUnderTest.
type realClock struct {
	c  *Clock
	tm []interface {
		Stop()
		Reset(time.Duration) bool
	}
	warms int // Warm calls on this clock's Alarms
}

// fuzzAlarm is an owner that embeds its Alarm and handles its firings.
// It is a Warmer, so every batch with an Alarm in it runs the warm pass.
type fuzzAlarm struct {
	Alarm
	fn    func(Time)
	warms *int
}

func (a *fuzzAlarm) Fire(now Time) { a.fn(now) }

// Warm counts its calls and reads nothing but its own queue state: the
// clock warms only timers in the due batch, so anything else is a bug.
func (a *fuzzAlarm) Warm() uintptr {
	if a.t.list != dueList {
		panic(fmt.Sprintf("sim: Warm of an Alarm outside the due batch (list %d)", a.t.list))
	}
	*a.warms++
	return uintptr(a.t.seq)
}

func (r *realClock) arm(d time.Duration, fn func(Time)) int {
	a := &fuzzAlarm{fn: fn, warms: &r.warms}
	r.c.Arm(&a.Alarm, d, a)
	r.tm = append(r.tm, a)
	return len(r.tm) - 1
}

func (r *realClock) after(d time.Duration, fn func(Time)) int {
	r.tm = append(r.tm, r.c.After(d, fn))
	return len(r.tm) - 1
}

func (r *realClock) every(p time.Duration, fn func(Time)) int {
	r.tm = append(r.tm, r.c.Every(p, fn))
	return len(r.tm) - 1
}

func (r *realClock) stop(id int)                        { r.tm[id].Stop() }
func (r *realClock) reset(id int, d time.Duration) bool { return r.tm[id].Reset(d) }
func (r *realClock) step()                              { r.c.Step() }
func (r *realClock) now() Time                          { return r.c.Now() }
func (r *realClock) pending() int                       { return r.c.pending }
func (r *realClock) timers() int                        { return len(r.tm) }

// modelClock is the reference: pending timers in a slice kept sorted by
// (when, seq), fired from the front.
type modelClock struct {
	t, tick time.Duration
	seq     uint64
	ts      []*modelTimer
	queue   []*modelTimer
}

type modelTimer struct {
	id      int
	when    Time
	seq     uint64
	period  time.Duration
	fn      func(Time)
	stopped bool
	queued  bool
}

func (m *modelClock) enqueue(mt *modelTimer, when Time, seq uint64) {
	mt.when, mt.seq, mt.queued = when, seq, true
	i := sort.Search(len(m.queue), func(i int) bool {
		q := m.queue[i]
		return q.when > when || (q.when == when && q.seq > seq)
	})
	m.queue = slices.Insert(m.queue, i, mt)
}

func (m *modelClock) dequeue(mt *modelTimer) {
	m.queue = slices.DeleteFunc(m.queue, func(q *modelTimer) bool { return q == mt })
	mt.queued = false
}

func (m *modelClock) add(when Time, period time.Duration, fn func(Time)) int {
	mt := &modelTimer{id: len(m.ts), period: period, fn: fn}
	m.ts = append(m.ts, mt)
	m.seq++
	m.enqueue(mt, when, m.seq)
	return mt.id
}

func (m *modelClock) after(d time.Duration, fn func(Time)) int { return m.add(m.t+d, 0, fn) }
func (m *modelClock) arm(d time.Duration, fn func(Time)) int   { return m.add(m.t+d, 0, fn) }
func (m *modelClock) every(p time.Duration, fn func(Time)) int { return m.add(m.t+p, p, fn) }

func (m *modelClock) stop(id int) {
	mt := m.ts[id]
	mt.stopped = true
	if mt.queued {
		m.dequeue(mt)
	}
}

func (m *modelClock) reset(id int, d time.Duration) bool {
	mt := m.ts[id]
	was := mt.queued
	if was {
		m.dequeue(mt)
	}
	mt.stopped = false
	m.seq++
	m.enqueue(mt, m.t+d, m.seq)
	return was
}

func (m *modelClock) step() {
	m.t += m.tick
	for len(m.queue) > 0 && m.queue[0].when <= m.t {
		mt := m.queue[0]
		when, seq := mt.when, mt.seq
		m.dequeue(mt)
		mt.fn(m.t)
		if mt.period > 0 && !mt.stopped && !mt.queued {
			m.enqueue(mt, when+mt.period, seq)
		}
	}
}

func (m *modelClock) now() Time { return m.t }

func (m *modelClock) pending() int { return len(m.queue) }
func (m *modelClock) timers() int  { return len(m.ts) }
