// Package sim provides the discrete-time simulation engine underneath the
// host model: a virtual clock, a timer queue ordered by firing time, and a
// deterministic pseudo-random number generator.
//
// The engine advances in fixed ticks (Clock.Step). Timers scheduled between
// ticks fire, in timestamp order, when the clock passes their deadline.
// Everything is single-goroutine and deterministic: two runs with the same
// seed and the same sequence of Step calls produce identical histories.
//
// The timer queue is a calendar queue (a hashed timing wheel): a
// power-of-two number of one-tick buckets plus a bitmap of the occupied
// ones. A timer due in tick k (the first tick boundary at or after its
// deadline) sits in bucket k mod the wheel size, on an intrusive list
// threaded through the timer itself, so scheduling, Stop and Reset are
// O(1) list splices. The wheel is sized to the clock's load: it starts
// at 64 buckets and doubles in place, up to 1024, whenever pending
// timers outnumber buckets, so a clock with a handful of timers stays
// small and one with thousands spreads them a tick apiece. Once the
// wheel has stopped growing the queue allocates nothing. A timer more
// than one lap ahead shares its bucket with nearer ones and stays there
// until its lap comes round. Step is the only way the clock moves: it
// advances one tick, moves the due timers of that tick's bucket into the
// due batch, sorts the batch by (when, seq) and fires it in that order.
// The firing order depends on (when, seq) alone, never on the wheel
// size.
//
// Before a due batch of two or more timers fires, a warm pass walks the
// next 64 of them (a window, run again as the batch drains, so a batch
// of thousands does not evict its own lines) and calls Warm on each
// handler that is a Warmer. Each Warm loads the state its Fire will
// touch, and the loads of different timers do not depend on each other,
// so their cache misses overlap; the firings then run in the same
// (when, seq) order on warm lines. Warm only reads, so the pass cannot change a
// firing: it is a prefetch, the "group prefetching" of hash joins.
// Whether a handler is a Warmer is decided once, when its timer is
// armed.
//
// A timer either lives in its own allocation behind a Timer handle
// (After, Every: the callback is a func) or is an Alarm embedded in the
// struct that owns it (Arm: the callback is the owner's Fire method).
// Both are the same queue entry; After and Every are thin constructors
// that allocate the entry and adapt the func to a Handler. An owner
// that embeds its Alarm keeps the queue links, the deadline and its own
// state in one allocation, so a firing touches one record instead of a
// timer, a closure and the variables it captured.
//
// seq is a per-clock counter stamped when a timer is scheduled or
// reset, so (when, seq) is a total order: equal deadlines fire in
// scheduling order. A callback that schedules a timer at or before now,
// or a periodic timer re-queued at or before now (a period shorter than
// the tick), joins the due batch at its (when, seq) position, so the
// firing order is the one a single priority queue would give. A
// self-re-arming callback that calls Reset on its own handle or Alarm
// reuses its timer and schedules without allocating.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation.
type Time = time.Duration

const (
	// The wheel has between minWheel and maxWheel buckets, one tick
	// each, so one lap is as many ticks as there are buckets.
	minWheel = 64
	maxWheel = 1024

	// A timer's list is notQueued (the zero value, so an unarmed Alarm
	// is idle), dueList, or s+1 for bucket s.
	notQueued = 0
	dueList   = -1
)

// Handler is what a timer runs when it fires. An owner that embeds an
// Alarm implements it with a method, so arming stores only the owner's
// pointer and allocates nothing.
type Handler interface{ Fire(now Time) }

// Warmer is a Handler that can load what its next Fire will touch
// without acting on it. Before a due batch of two or more timers fires,
// the clock calls Warm on each of the batch's Warmers in one loop, so
// their cache misses overlap instead of queuing one firing after
// another. Warm must only read: no writes, no random draws, no calls
// that change state. It returns any value derived from its loads, which
// the clock keeps so the compiler cannot drop them.
type Warmer interface{ Warm() uintptr }

// funcHandler adapts a callback func to a Handler for After and Every.
type funcHandler func(Time)

func (f funcHandler) Fire(now Time) { f(now) }

// Clock is the virtual clock plus the timer queue that drives the
// simulation. The zero value is not usable; call NewClock.
type Clock struct {
	now  Time
	tick time.Duration
	// cur is the index of the tick now ends, now/tick (Step keeps now on
	// the tick grid). Every timer in a bucket is due after now, so its
	// tick index is above cur; the due batch holds the timers due at or
	// before now.
	cur int64
	// next is a tick before which no timer in a bucket is due, so
	// steps before it skip their buckets.
	next int64
	seq  uint64
	// pending counts the queued timers, buckets and due batch together.
	pending int
	// due and dueTail are the ends of the due batch, kept sorted by
	// (when, seq).
	due, dueTail *timer
	// The fields above are all a step with nothing due reads; the
	// buckets follow. len(heads) is the wheel size, a power of two.
	heads    []*timer
	occupied [maxWheel / 64]uint64 // bit s set: bucket s is non-empty
	// warmSum folds every value Warm returned, so the loads behind them
	// are kept. It is per clock, not per package, because clocks run on
	// different goroutines. Nothing reads it.
	warmSum uintptr
}

// NewClock returns a clock at time zero advancing in steps of tick.
func NewClock(tick time.Duration) *Clock {
	if tick <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick %v", tick))
	}
	return &Clock{tick: tick, heads: make([]*timer, minWheel)}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Step advances the clock by one tick and fires every timer whose deadline
// has been reached, in deadline order (FIFO among equal deadlines). It
// returns the new time. Timer callbacks may schedule further timers,
// including for the current instant; those fire within the same Step.
// Step is the only way the clock moves, so now is always on the tick
// grid.
func (c *Clock) Step() Time {
	c.now += c.tick
	c.cur++
	// Most steps of a host with few timers reach an empty bucket and have
	// nothing to do.
	if c.cur >= c.next || c.due != nil {
		c.fire()
	}
	return c.now
}

// fire collects the timers due in tick cur and fires the due batch.
func (c *Clock) fire() {
	c.collect()
	// The next non-empty bucket's tick: a lower bound on the next
	// bucket timer's due tick.
	c.next = c.cur + 1 + int64(c.nextOccupied(int(c.cur+1)&c.mask()))
	c.fireDue()
}

// collect moves every timer of tick cur's bucket that is due by now into
// the due batch. A timer a lap or more ahead shares the bucket and stays.
func (c *Clock) collect() {
	s := int(c.cur) & c.mask()
	var batch *timer
	n := 0
	for t := c.heads[s]; t != nil; {
		next := t.next
		if t.when <= c.now {
			c.unlinkBucket(t)
			t.next = batch
			batch = t
			n++
		}
		t = next
	}
	if n > 0 {
		c.mergeDue(sortChain(batch, n))
	}
}

// mask maps a tick index to its bucket.
func (c *Clock) mask() int { return len(c.heads) - 1 }

// nextOccupied returns the least offset j whose bucket, (s0+j) mod the
// wheel size, is non-empty, or the wheel size when there is none within
// a lap of s0.
func (c *Clock) nextOccupied(s0 int) int {
	n := len(c.heads)
	for i := 0; i < n; {
		s := (s0 + i) & (n - 1)
		if word := c.occupied[s>>6] >> (s & 63); word != 0 {
			return min(i+bits.TrailingZeros64(word), n)
		}
		i += 64 - s&63
	}
	return n
}

// warmWindow bounds one warm pass: the next warmWindow due timers are
// warmed together, and the pass runs again when they have fired, so a
// due batch of thousands of timers does not evict the lines it warmed
// before it reaches them.
const warmWindow = 64

// fireDue pops and runs the due batch in (when, seq) order. A periodic
// timer is re-queued after its callback with its original sequence
// number, unless the callback stopped or reset it. Before the first
// firing, and again each time a window's worth has fired, it warms the
// next warmWindow timers of the batch. Warming only reads, so the
// firings are the same whether a timer was warmed once, twice (a
// callback inserted a due timer ahead of it) or not at all.
func (c *Clock) fireDue() {
	left := 0 // firings until the next warm pass
	for t := c.due; t != nil; t = c.due {
		if left == 0 {
			left = c.warm(t)
		}
		left--
		when, seq := t.when, t.seq
		c.unlink(t)
		t.h.Fire(c.now)
		if t.period > 0 && !t.stopped && t.list == notQueued {
			c.insert(t, when+t.period, seq)
		}
	}
}

// warm calls Warm on the Warmers among the warmWindow due timers from t
// on and returns how many timers it covered. A lone timer is not
// warmed: there is no other miss for its own to overlap with.
func (c *Clock) warm(t *timer) int {
	if t.next == nil {
		return 1
	}
	n, sum := 0, uintptr(0)
	for ; t != nil && n < warmWindow; t = t.next {
		if t.w != nil {
			sum += t.w.Warm()
		}
		n++
	}
	c.warmSum += sum
	return n
}

// Timer is a handle to a scheduled callback.
type Timer struct{ t *timer }

// Stop cancels the timer and removes it from the timer queue eagerly,
// so cancelled timers never linger until their deadline. It is safe to
// call multiple times and from within the timer's own callback.
func (t Timer) Stop() {
	if t.t != nil {
		t.t.stop()
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
	if t.t == nil {
		panic("sim: Reset of zero Timer")
	}
	return t.t.reset(d)
}

// Alarm is a one-shot timer embedded in the struct that owns it, which
// handles its firings: Arm queues the Alarm itself, so the queue links
// and the deadline share the owner's allocation and arming allocates
// nothing. The zero value is an idle alarm. An Alarm must not be copied
// or moved while it is pending; owners are allocated one by one, not in
// a slice that append may move.
type Alarm struct{ t timer }

// Arm schedules h.Fire to run once when the clock reaches now+d, on the
// idle alarm a: one that was never armed, has fired, or was stopped. It
// stamps the alarm's place in the FIFO order among equal deadlines as
// After would. To reschedule a pending alarm, use Reset.
func (c *Clock) Arm(a *Alarm, d time.Duration, h Handler) {
	if a.t.list != notQueued {
		panic("sim: Arm of a pending Alarm")
	}
	c.schedule(&a.t, c.now+d, 0, h)
}

// Stop cancels the alarm like Timer.Stop.
func (a *Alarm) Stop() { a.t.stop() }

// Reset reschedules the alarm to fire at now+d like Timer.Reset, and
// reports whether it was pending. The alarm must have been armed.
func (a *Alarm) Reset(d time.Duration) bool {
	if a.t.c == nil {
		panic("sim: Reset of unarmed Alarm")
	}
	return a.t.reset(d)
}

// After schedules fn to run once when the clock reaches now+d.
func (c *Clock) After(d time.Duration, fn func(now Time)) Timer {
	t := new(timer)
	c.schedule(t, c.now+d, 0, funcHandler(fn))
	return Timer{t}
}

// Every schedules fn to run every period, first firing at now+period.
// period must be positive.
func (c *Clock) Every(period time.Duration, fn func(now Time)) Timer {
	if period <= 0 {
		panic("sim: non-positive timer period")
	}
	t := new(timer)
	c.schedule(t, c.now+period, period, funcHandler(fn))
	return Timer{t}
}

// schedule (re)initializes the unqueued timer t and queues it at when
// with a fresh sequence number.
func (c *Clock) schedule(t *timer, when Time, period time.Duration, h Handler) {
	w, _ := h.(Warmer)
	*t = timer{c: c, period: period, h: h, w: w}
	c.seq++
	c.insert(t, when, c.seq)
}

// timer is one queue entry. The fields every filing, sort and firing
// reads come first; an owner that embeds it as an Alarm puts the state
// its Fire reads right after.
type timer struct {
	next, prev *timer // neighbours on the timer's list
	when       Time
	seq        uint64
	list       int32 // notQueued, dueList, or bucket index + 1
	stopped    bool
	h          Handler
	w          Warmer // h as a Warmer, or nil: decided once, when armed
	c          *Clock
	period     time.Duration
}

func (t *timer) stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.list != notQueued {
		t.c.unlink(t)
	}
}

func (t *timer) reset(d time.Duration) bool {
	c := t.c
	was := t.list != notQueued
	if was {
		c.unlink(t)
	}
	t.stopped = false
	c.seq++
	c.insert(t, c.now+d, c.seq)
	return was
}

// before reports whether a fires before b: the (when, seq) order.
func (a *timer) before(b *timer) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// insert queues the unqueued timer t to fire at when with order key
// seq: into the due batch at its (when, seq) position when it is already
// due, else into the bucket of the first tick boundary at or after when.
func (c *Clock) insert(t *timer, when Time, seq uint64) {
	t.when, t.seq = when, seq
	c.pending++
	if when <= c.now {
		c.insertDue(t)
		return
	}
	if c.pending > len(c.heads) && len(c.heads) < maxWheel {
		c.grow()
	}
	// when > now >= 0, so k = ceil(when/tick) > cur.
	k := int64((when-1)/c.tick + 1)
	c.link(t, k)
	c.next = min(c.next, k)
}

// link pushes t onto the bucket of tick k.
func (c *Clock) link(t *timer, k int64) {
	s := int(k) & c.mask()
	h := c.heads[s]
	t.list, t.prev, t.next = int32(s+1), nil, h
	if h != nil {
		h.prev = t
	}
	c.heads[s] = t
	c.occupied[s>>6] |= 1 << (s & 63)
}

// grow doubles the wheel and re-files every bucket timer by its due
// tick. Only the buckets change: the due batch, the pending count, next
// (a tick bound) and every timer's (when, seq) stay as they are.
func (c *Clock) grow() {
	old := c.heads
	c.heads = make([]*timer, 2*len(old))
	c.occupied = [maxWheel / 64]uint64{}
	for _, t := range old {
		for t != nil {
			next := t.next
			c.link(t, int64((t.when-1)/c.tick+1))
			t = next
		}
	}
}

// insertDue links t into the sorted due batch. Searching from the tail
// makes the common case — a fresh timer due now, whose seq is the
// largest — O(1).
func (c *Clock) insertDue(t *timer) {
	p := c.dueTail
	for p != nil && t.before(p) {
		p = p.prev
	}
	t.list, t.prev = dueList, p
	if p == nil {
		t.next = c.due
		c.due = t
	} else {
		t.next = p.next
		p.next = t
	}
	if t.next != nil {
		t.next.prev = t
	} else {
		c.dueTail = t
	}
}

// unlink removes the queued timer t from its list.
func (c *Clock) unlink(t *timer) {
	c.pending--
	if t.list != dueList {
		c.unlinkBucket(t)
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		c.due = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		c.dueTail = t.prev
	}
	t.list, t.prev, t.next = notQueued, nil, nil
}

// unlinkBucket removes t from its bucket list, clearing the bucket's
// bit when it empties. The pending count is the caller's.
func (c *Clock) unlinkBucket(t *timer) {
	s := int(t.list) - 1
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		c.heads[s] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	if c.heads[s] == nil {
		c.occupied[s>>6] &^= 1 << (s & 63)
	}
	t.list, t.prev, t.next = notQueued, nil, nil
}

// mergeDue merges the sorted chain (linked through next) into the due
// batch and restores the batch's prev links and tail.
func (c *Clock) mergeDue(chain *timer) {
	head := mergeChains(c.due, chain)
	c.due = head
	var prev *timer
	for t := head; t != nil; t = t.next {
		t.list, t.prev = dueList, prev
		prev = t
	}
	c.dueTail = prev
}

// sortChain sorts the n-timer chain starting at h (linked through next)
// by (when, seq) and returns its new head; only the first n timers are
// read, and the result ends in nil.
func sortChain(h *timer, n int) *timer {
	if n == 1 {
		h.next = nil
		return h
	}
	mid := h
	for i := 1; i < n/2; i++ {
		mid = mid.next
	}
	rest := mid.next
	return mergeChains(sortChain(h, n/2), sortChain(rest, n-n/2))
}

// mergeChains merges two sorted nil-terminated chains.
func mergeChains(a, b *timer) *timer {
	var head *timer
	tail := &head
	for a != nil && b != nil {
		if b.before(a) {
			*tail = b
			tail = &b.next
			b = b.next
		} else {
			*tail = a
			tail = &a.next
			a = a.next
		}
	}
	if a != nil {
		*tail = a
	} else {
		*tail = b
	}
	return head
}
