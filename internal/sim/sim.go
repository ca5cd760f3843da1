// Package sim provides the discrete-time simulation engine underneath the
// host model: a virtual clock, a timer queue ordered by firing time, and a
// deterministic pseudo-random number generator.
//
// The engine advances in fixed ticks (Clock.Step). Timers scheduled between
// ticks fire, in timestamp order, when the clock passes their deadline.
// Everything is single-goroutine and deterministic: two runs with the same
// seed and the same sequence of Step calls produce identical histories.
//
// The timer queue is a binary min-heap of (when, seq, *timer) entries.
// seq is a per-clock counter stamped when a timer is scheduled or reset,
// so (when, seq) is a total order: equal deadlines fire in scheduling
// order. Keys live inline in the heap slice, so sifting compares without
// dereferencing timers. Each timer records its heap index, which lets
// Stop remove it eagerly and Reset re-key it in place; a self-re-arming
// callback that calls Reset on its own handle therefore schedules
// without allocating.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation.
type Time = time.Duration

// Clock is the virtual clock plus the timer queue that drives the
// simulation. The zero value is not usable; call NewClock.
type Clock struct {
	now   Time
	tick  time.Duration
	queue []entry
	seq   uint64
}

// NewClock returns a clock at time zero advancing in steps of tick.
func NewClock(tick time.Duration) *Clock {
	if tick <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick %v", tick))
	}
	return &Clock{tick: tick}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Step advances the clock by one tick and fires every timer whose deadline
// has been reached, in deadline order (FIFO among equal deadlines). It
// returns the new time. Timer callbacks may schedule further timers,
// including for the current instant; those fire within the same Step.
func (c *Clock) Step() Time {
	c.now += c.tick
	c.fireDue()
	return c.now
}

// Advance jumps the clock to instant `to` in one step and fires any
// timer whose deadline falls within the span, in deadline order. Unlike
// dense stepping, callbacks observe now == to, so Advance is meant for
// jumping across spans the caller knows to be timer-free: the
// event-driven host kernel bounds every jump with NextDeadline so the
// next timer still fires on the same tick boundary it would have under
// dense Step calls, keeping runs bit-identical.
func (c *Clock) Advance(to Time) Time {
	if to < c.now {
		panic(fmt.Sprintf("sim: Advance to %v before now %v", to, c.now))
	}
	c.now = to
	c.fireDue()
	return c.now
}

// fireDue pops and runs every timer due at or before now. A periodic
// timer is re-queued after its callback with its original sequence
// number, unless the callback stopped or reset it.
func (c *Clock) fireDue() {
	for len(c.queue) > 0 && c.queue[0].when <= c.now {
		e := c.queue[0]
		c.remove(0)
		t := e.t
		t.fn(c.now)
		if t.period > 0 && !t.stopped && t.idx < 0 {
			c.push(entry{when: e.when + t.period, seq: e.seq, t: t})
		}
	}
}

// NextDeadline returns the deadline of the earliest pending timer.
// ok is false when no timer is scheduled. Cancelled timers are removed
// eagerly by Stop, so the returned deadline is always live.
func (c *Clock) NextDeadline() (Time, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].when, true
}

// Timer is a handle to a scheduled callback.
type Timer struct{ t *timer }

// Stop cancels the timer and removes it from the timer queue eagerly,
// so cancelled timers never linger until their deadline. It is safe to
// call multiple times and from within the timer's own callback.
func (t Timer) Stop() {
	tm := t.t
	if tm == nil || tm.stopped {
		return
	}
	tm.stopped = true
	if tm.idx >= 0 {
		tm.c.remove(tm.idx)
	}
}

// Reset reschedules the timer to fire at now+d, whether it is pending,
// has fired, or was stopped, and reports whether it was pending. Like
// time.Timer.Reset it reuses the timer, so it does not allocate. The
// timer takes a fresh place in the FIFO order among equal deadlines,
// exactly as if After had scheduled it anew. A periodic timer fires
// first at now+d and every period after that. Reset may be called from
// within the timer's own callback.
func (t Timer) Reset(d time.Duration) bool {
	tm := t.t
	if tm == nil {
		panic("sim: Reset of zero Timer")
	}
	c := tm.c
	c.seq++
	tm.stopped = false
	e := entry{when: c.now + d, seq: c.seq, t: tm}
	if i := tm.idx; i >= 0 {
		c.queue[i] = e
		if !c.down(i) {
			c.up(i)
		}
		return true
	}
	c.push(e)
	return false
}

// After schedules fn to run once when the clock reaches now+d.
func (c *Clock) After(d time.Duration, fn func(now Time)) Timer {
	return c.schedule(c.now+d, 0, fn)
}

// Every schedules fn to run every period, first firing at now+period.
// period must be positive.
func (c *Clock) Every(period time.Duration, fn func(now Time)) Timer {
	if period <= 0 {
		panic("sim: non-positive timer period")
	}
	return c.schedule(c.now+period, period, fn)
}

func (c *Clock) schedule(when Time, period time.Duration, fn func(Time)) Timer {
	c.seq++
	t := &timer{c: c, period: period, fn: fn, idx: -1}
	c.push(entry{when: when, seq: c.seq, t: t})
	return Timer{t}
}

type timer struct {
	c       *Clock
	period  time.Duration
	fn      func(Time)
	stopped bool
	idx     int // position in the queue; -1 while not enqueued
}

// entry is one queued timer with its ordering key stored inline.
type entry struct {
	when Time
	seq  uint64
	t    *timer
}

func (a *entry) less(b *entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// set stores e at position i and records the position in its timer.
func (c *Clock) set(i int, e entry) {
	c.queue[i] = e
	e.t.idx = i
}

func (c *Clock) push(e entry) {
	c.queue = append(c.queue, e)
	c.up(len(c.queue) - 1)
}

// remove deletes the entry at position i, marking its timer unqueued.
func (c *Clock) remove(i int) {
	q := c.queue
	n := len(q) - 1
	q[i].t.idx = -1
	if i != n {
		c.set(i, q[n])
	}
	q[n] = entry{}
	c.queue = q[:n]
	if i != n && !c.down(i) {
		c.up(i)
	}
}

// up sifts the entry at position i toward the root.
func (c *Clock) up(i int) {
	q := c.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&q[p]) {
			break
		}
		c.set(i, q[p])
		i = p
	}
	c.set(i, e)
}

// down sifts the entry at position i toward the leaves and reports
// whether it moved.
func (c *Clock) down(i0 int) bool {
	q := c.queue
	n := len(q)
	e := q[i0]
	i := i0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].less(&q[l]) {
			m = r
		}
		if !q[m].less(&e) {
			break
		}
		c.set(i, q[m])
		i = m
	}
	c.set(i, e)
	return i > i0
}
