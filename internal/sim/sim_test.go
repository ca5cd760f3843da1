package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// runUntil steps c until now >= deadline.
func runUntil(c *Clock, deadline Time) {
	for c.Now() < deadline {
		c.Step()
	}
}

func TestClockStepAdvances(t *testing.T) {
	c := NewClock(time.Millisecond)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Step()
	c.Step()
	if c.Now() != 2*time.Millisecond {
		t.Fatalf("after two steps: %v", c.Now())
	}
}

func TestNewClockPanicsOnBadTick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive tick")
		}
	}()
	NewClock(0)
}

func TestAfterFiresOnce(t *testing.T) {
	c := NewClock(time.Millisecond)
	var fired []Time
	c.After(3*time.Millisecond, func(now Time) { fired = append(fired, now) })
	runUntil(c, 10*time.Millisecond)
	if len(fired) != 1 {
		t.Fatalf("one-shot fired %d times", len(fired))
	}
	if fired[0] != 3*time.Millisecond {
		t.Fatalf("fired at %v, want 3ms", fired[0])
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	c := NewClock(time.Millisecond)
	n := 0
	c.Every(2*time.Millisecond, func(Time) { n++ })
	runUntil(c, 11*time.Millisecond)
	if n != 5 {
		t.Fatalf("periodic fired %d times in 11ms at 2ms period, want 5", n)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock(time.Millisecond)
	n := 0
	tm := c.Every(time.Millisecond, func(Time) { n++ })
	runUntil(c, 3*time.Millisecond)
	tm.Stop()
	runUntil(c, 10*time.Millisecond)
	if n != 3 {
		t.Fatalf("fired %d times, want 3 (stopped)", n)
	}
}

func TestTimerStopFromCallback(t *testing.T) {
	c := NewClock(time.Millisecond)
	n := 0
	var tm Timer
	tm = c.Every(time.Millisecond, func(Time) {
		n++
		if n == 2 {
			tm.Stop()
		}
	})
	runUntil(c, 10*time.Millisecond)
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
}

func TestTimerOrderingFIFOAtSameDeadline(t *testing.T) {
	c := NewClock(time.Millisecond)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.After(time.Millisecond, func(Time) { order = append(order, i) })
	}
	c.Step()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestTimerScheduledWithinCallbackSameInstant(t *testing.T) {
	c := NewClock(time.Millisecond)
	var hits []string
	c.After(time.Millisecond, func(now Time) {
		hits = append(hits, "outer")
		c.After(0, func(Time) { hits = append(hits, "inner") })
	})
	c.Step()
	if len(hits) != 2 || hits[1] != "inner" {
		t.Fatalf("hits = %v; nested zero-delay timer must fire within the same step", hits)
	}
}

func TestStopRemovesTimerEagerly(t *testing.T) {
	c := NewClock(time.Millisecond)
	// A churny workload: schedule far-future timers and cancel them
	// immediately. The queue must not accumulate dead entries.
	for i := 0; i < 1000; i++ {
		tm := c.After(time.Hour, func(Time) {})
		tm.Stop()
	}
	if n := c.pending; n != 0 {
		t.Fatalf("pending timers = %d after stopping every timer, want 0", n)
	}
	live := c.After(5*time.Millisecond, func(Time) {})
	dead := c.After(time.Millisecond, func(Time) { t.Fatal("stopped timer fired") })
	dead.Stop()
	if n := c.pending; n != 1 {
		t.Fatalf("pending timers = %d, want 1 live", n)
	}
	runUntil(c, 10*time.Millisecond)
	_ = live
	// Stop is idempotent, including after firing.
	live.Stop()
	live.Stop()
}

func TestStopOtherTimerFromCallback(t *testing.T) {
	c := NewClock(time.Millisecond)
	var bFired bool
	b := c.After(2*time.Millisecond, func(Time) { bFired = true })
	c.After(time.Millisecond, func(Time) { b.Stop() })
	runUntil(c, 5*time.Millisecond)
	if bFired {
		t.Fatal("timer fired after being stopped by an earlier callback")
	}
	if c.pending != 0 {
		t.Fatalf("pending timers = %d", c.pending)
	}
}

func TestResetOrdersLikeAfter(t *testing.T) {
	c := NewClock(time.Millisecond)
	var order []string
	a := c.After(time.Millisecond, func(Time) { order = append(order, "a") })
	c.After(2*time.Millisecond, func(Time) { order = append(order, "b") })
	// Re-keyed to b's deadline, a now ranks after b: a fresh place in
	// the FIFO order, as if After had scheduled it anew.
	if !a.Reset(2 * time.Millisecond) {
		t.Fatal("Reset of a pending timer reported not pending")
	}
	runUntil(c, 3*time.Millisecond)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestResetRevivesStoppedAndFiredTimers(t *testing.T) {
	c := NewClock(time.Millisecond)
	var fired []Time
	tm := c.After(time.Millisecond, func(now Time) { fired = append(fired, now) })
	c.Step()
	if tm.Reset(2 * time.Millisecond) {
		t.Fatal("Reset of a fired timer reported pending")
	}
	tm.Stop()
	if tm.Reset(3*time.Millisecond) || c.pending != 1 {
		t.Fatalf("Reset of a stopped timer: pending=%d, want 1", c.pending)
	}
	runUntil(c, 10*time.Millisecond)
	if len(fired) != 2 || fired[1] != 4*time.Millisecond {
		t.Fatalf("fired = %v, want [1ms 4ms]", fired)
	}
}

func TestResetFromCallbackDoesNotAllocate(t *testing.T) {
	c := NewClock(time.Millisecond)
	n := 0
	var tm Timer
	tm = c.After(time.Millisecond, func(Time) {
		n++
		tm.Reset(time.Millisecond)
	})
	if allocs := testing.AllocsPerRun(100, func() { c.Step() }); allocs != 0 {
		t.Fatalf("self-re-arming timer allocates %.1f per step, want 0", allocs)
	}
	if n != 101 { // AllocsPerRun adds one warm-up call
		t.Fatalf("fired %d times, want 101", n)
	}
}

func TestResetZeroTimerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resetting a zero Timer")
		}
	}()
	Timer{}.Reset(time.Millisecond)
}

// rearmer is an owner with an embedded Alarm: each firing counts and
// re-arms one tick out, as a churn rule does.
type rearmer struct {
	Alarm
	c     *Clock
	fired []Time
}

func (r *rearmer) Fire(now Time) {
	r.fired = append(r.fired, now)
	r.Reset(r.c.tick)
}

func TestAlarmFiresThroughItsOwner(t *testing.T) {
	c := NewClock(time.Millisecond)
	var order []string
	c.After(2*time.Millisecond, func(Time) { order = append(order, "after") })
	r := &rearmer{c: c}
	c.Arm(&r.Alarm, 2*time.Millisecond, r)
	c.After(2*time.Millisecond, func(Time) { order = append(order, "after2") })
	c.Step()
	c.Step()
	// The alarm re-armed itself, so it fires every tick from 2ms.
	if len(r.fired) != 1 || r.fired[0] != 2*time.Millisecond {
		t.Fatalf("alarm fired at %v, want [2ms]", r.fired)
	}
	if len(order) != 2 || order[0] != "after" || order[1] != "after2" {
		t.Fatalf("timers fired %v", order)
	}
	runUntil(c, 5*time.Millisecond)
	if len(r.fired) != 4 {
		t.Fatalf("self-re-arming alarm fired %d times by 5ms, want 4", len(r.fired))
	}
	r.Stop()
	runUntil(c, 8*time.Millisecond)
	if len(r.fired) != 4 || c.pending != 0 {
		t.Fatalf("stopped alarm fired %d times, %d pending", len(r.fired), c.pending)
	}
	// A stopped (or fired) alarm can be armed again.
	c.Arm(&r.Alarm, time.Millisecond, r)
	c.Step()
	if len(r.fired) != 5 {
		t.Fatalf("re-armed alarm fired %d times, want 5", len(r.fired))
	}
	r.Stop()
	r.fired = make([]Time, 0, 128)
	c.Arm(&r.Alarm, time.Millisecond, r)
	if allocs := testing.AllocsPerRun(100, func() { c.Step() }); allocs != 0 {
		t.Fatalf("self-re-arming alarm allocates %.1f per step, want 0", allocs)
	}
}

// warmLog is an owner whose Warm and Fire append to a shared log, so a
// test sees the order of warms and firings across a batch. Warm reads
// only its own alarm, to record whether it was in the due batch.
type warmLog struct {
	Alarm
	id     int
	log    *[]string
	onFire func()
}

func (w *warmLog) Warm() uintptr {
	state := "warm"
	if w.t.list != dueList {
		state = "warm-undue"
	}
	*w.log = append(*w.log, fmt.Sprint(state, w.id))
	return uintptr(w.id)
}

func (w *warmLog) Fire(Time) {
	*w.log = append(*w.log, fmt.Sprint("fire", w.id))
	if w.onFire != nil {
		w.onFire()
	}
}

func TestWarmPass(t *testing.T) {
	arm := func(c *Clock, log *[]string, n int, d time.Duration) []*warmLog {
		ws := make([]*warmLog, n)
		for i := range ws {
			ws[i] = &warmLog{id: i, log: log}
			c.Arm(&ws[i].Alarm, d, ws[i])
		}
		return ws
	}
	t.Run("batch warmed once before its first firing", func(t *testing.T) {
		c := NewClock(time.Millisecond)
		var log []string
		arm(c, &log, 3, time.Millisecond)
		// A plain timer in the same batch keeps its FIFO place and is
		// not warmed.
		c.After(time.Millisecond, func(Time) { log = append(log, "after") })
		arm(c, &log, 1, time.Millisecond)[0].id = 3
		c.Step()
		want := []string{"warm0", "warm1", "warm2", "warm3", "fire0", "fire1", "fire2", "after", "fire3"}
		if !slices.Equal(log, want) {
			t.Fatalf("log = %v, want %v", log, want)
		}
	})
	t.Run("singleton batch not warmed", func(t *testing.T) {
		c := NewClock(time.Millisecond)
		var log []string
		arm(c, &log, 1, time.Millisecond)
		arm(c, &log, 1, 2*time.Millisecond)[0].id = 1
		runUntil(c, 3*time.Millisecond)
		if want := []string{"fire0", "fire1"}; !slices.Equal(log, want) {
			t.Fatalf("log = %v, want %v", log, want)
		}
	})
	t.Run("timer stopped by an earlier callback never fires", func(t *testing.T) {
		c := NewClock(time.Millisecond)
		var log []string
		ws := arm(c, &log, 3, time.Millisecond)
		ws[0].onFire = ws[1].Stop
		c.Step()
		want := []string{"warm0", "warm1", "warm2", "fire0", "fire2"}
		if !slices.Equal(log, want) {
			t.Fatalf("log = %v, want %v", log, want)
		}
		if c.pending != 0 {
			t.Fatalf("%d timers pending, want 0", c.pending)
		}
	})
	t.Run("window drains a long batch in order", func(t *testing.T) {
		// One Step whose due batch holds more timers than a window: every
		// timer is warmed exactly once, while due, no more than a window
		// ahead of its firing, and the firings keep their (when, seq)
		// order.
		const n = 3*warmWindow + 5
		c := NewClock(time.Millisecond)
		var log []string
		ws := make([]*warmLog, n)
		for i := range ws {
			// Later ids get earlier deadlines, all within the first tick,
			// so the batch order differs from the arming order.
			ws[i] = &warmLog{id: i, log: &log}
			c.Arm(&ws[i].Alarm, time.Duration(n-i)*time.Microsecond, ws[i])
		}
		c.Step()
		warmedAt := map[int]int{}
		fired := 0
		var order []int
		for i, e := range log {
			var id int
			switch {
			case strings.HasPrefix(e, "warm-undue"):
				t.Fatalf("%s: warmed outside the due batch", e)
			case strings.HasPrefix(e, "warm"):
				fmt.Sscan(e[len("warm"):], &id)
				if _, dup := warmedAt[id]; dup {
					t.Fatalf("timer %d warmed twice", id)
				}
				warmedAt[id] = i
				if ahead := len(warmedAt) - fired; ahead > warmWindow {
					t.Fatalf("%d timers warmed ahead of their firing, window %d", ahead, warmWindow)
				}
			default:
				fmt.Sscan(e[len("fire"):], &id)
				at, ok := warmedAt[id]
				if !ok && fired != n-1 {
					t.Fatalf("timer %d fired unwarmed", id)
				}
				if ok && at > i {
					t.Fatalf("timer %d warmed after its firing", id)
				}
				order = append(order, id)
				fired++
			}
		}
		if len(order) != n {
			t.Fatalf("%d firings, want %d", len(order), n)
		}
		for i, id := range order {
			if id != n-1-i {
				t.Fatalf("firing %d was timer %d, want %d", i, id, n-1-i)
			}
		}
	})
}

// Each misuse gets its own clock and alarm: an alarm a case leaves
// pending must not change what the next case sees.
func TestAlarmMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(c *Clock, r *rearmer)
	}{
		{"Reset of unarmed", func(c *Clock, r *rearmer) { r.Reset(time.Millisecond) }},
		{"Arm of pending", func(c *Clock, r *rearmer) {
			c.Arm(&r.Alarm, time.Millisecond, r)
			c.Arm(&r.Alarm, time.Millisecond, r)
		}},
	} {
		c := NewClock(time.Millisecond)
		r := &rearmer{c: c}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(c, r)
		}()
	}
}

// The wheel starts small, doubles while pending timers outnumber its
// buckets, stops at maxWheel, and fires in (when, seq) order whatever
// its size, including timers re-filed by a growth mid-run.
func TestWheelGrowsWithLoad(t *testing.T) {
	c := NewClock(time.Millisecond)
	if n := len(c.heads); n != minWheel {
		t.Fatalf("new wheel has %d buckets, want %d", n, minWheel)
	}
	// Timer i is due at when(i): deadlines out of scheduling order, on
	// half ticks, some equal, most laps out of the smallest wheel.
	const total = 3000
	when := func(i int) Time {
		at := time.Duration(1+(i*7919)%total) * time.Millisecond / 2
		if i > minWheel {
			at += 100 * time.Millisecond // scheduled at 100ms
		}
		return at
	}
	var got []int
	schedule := func(i int) {
		c.After(when(i)-c.Now(), func(Time) { got = append(got, i) })
	}
	for i := 0; i < minWheel; i++ {
		schedule(i)
	}
	if n := len(c.heads); n != minWheel {
		t.Fatalf("%d pending grew the wheel to %d", minWheel, n)
	}
	schedule(minWheel)
	if n := len(c.heads); n != 2*minWheel {
		t.Fatalf("%d pending: wheel has %d buckets, want %d", minWheel+1, n, 2*minWheel)
	}
	runUntil(c, 100*time.Millisecond)
	for i := minWheel + 1; i < total; i++ {
		schedule(i)
	}
	if n := len(c.heads); n != maxWheel {
		t.Fatalf("wheel has %d buckets, want the cap %d", n, maxWheel)
	}
	runUntil(c, 2*time.Second)
	// The reference order: by deadline, then by scheduling order.
	want := make([]int, total)
	for i := range want {
		want[i] = i
	}
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(when(a), when(b)) })
	if !slices.Equal(got, want) {
		t.Fatalf("firing order diverges from (when, seq): %d fired, want %d", len(got), total)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

// BenchmarkTimerChurn is the timer queue on its own at the headline
// churn point: 16 384 one-shot timers that each re-arm themselves
// 225–275 ms out (jitter from a fixed LCG) plus one 24 ms periodic
// timer, stepped at a 1 ms tick, so each op — one Step — fires about
// 65 timers. The warm-up spreads the deadlines over the lap before the
// timed region starts.
func BenchmarkTimerChurn(b *testing.B) {
	const n = 16384
	c := NewClock(time.Millisecond)
	lcg := uint64(1)
	jitter := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return 225*time.Millisecond + time.Duration(lcg>>33)%(50*time.Millisecond)
	}
	tms := make([]Timer, n)
	for i := range tms {
		tms[i] = c.After(jitter(), func(Time) { tms[i].Reset(jitter()) })
	}
	c.Every(24*time.Millisecond, func(Time) {})
	runUntil(c, 2*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
