package telemetry

import (
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(0, KindKswapd, "g", 1, 2) // must not panic
	tr.Add(CtrSteps, 5)
	if tr.Count(CtrSteps) != 0 {
		t.Fatal("nil tracer counted")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer holds events")
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer emitted/dropped nonzero")
	}
	tr.Reset()
	if len(tr.Counters()) != 0 {
		t.Fatal("nil tracer has counters")
	}
}

func TestEmitAndCounters(t *testing.T) {
	tr := New(8)
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	tr.Emit(time.Millisecond, KindThrottle, "c0", 500, 0)
	tr.Emit(2*time.Millisecond, KindUnthrottle, "c0", 900, 0)
	tr.Add(CtrSteps, 1)
	tr.Add(CtrSteps, 2)
	if got := tr.Count(CtrSteps); got != 3 {
		t.Fatalf("CtrSteps = %d, want 3", got)
	}
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Kind != KindThrottle || ev[1].Kind != KindUnthrottle {
		t.Fatalf("events = %v", ev)
	}
	if ev[0].At != time.Millisecond || ev[0].Actor != "c0" || ev[0].A != 500 {
		t.Fatalf("event fields wrong: %+v", ev[0])
	}
	if got := tr.EventsOf(KindThrottle); len(got) != 1 {
		t.Fatalf("EventsOf(throttle) = %v", got)
	}
	if tr.Counters()["kernel.steps"] != 3 {
		t.Fatal("Counters map wrong")
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, KindNSUpdate, "c", int64(i), 0)
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d", tr.Emitted())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.A != int64(6+i) {
			t.Fatalf("events = %v, want A=6..9 oldest-first", ev)
		}
	}
}

func TestReset(t *testing.T) {
	tr := New(4)
	tr.Emit(0, KindKswapd, "", 1, 2)
	tr.Add(CtrKswapdRuns, 1)
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Count(CtrKswapdRuns) != 0 || tr.Emitted() != 0 {
		t.Fatal("Reset incomplete")
	}
	// Ring capacity survives.
	for i := 0; i < 6; i++ {
		tr.Emit(0, KindKswapd, "", int64(i), 0)
	}
	if len(tr.Events()) != 4 {
		t.Fatalf("post-reset ring capacity changed: %d", len(tr.Events()))
	}
}

func TestStrings(t *testing.T) {
	kinds := []Kind{KindFastForward, KindThrottle, KindUnthrottle, KindKswapd,
		KindDirectReclaim, KindOOMKill, KindNSUpdate, Kind(200)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("Kind(%d) has empty name", k)
		}
	}
	for c := Counter(0); c <= numCounters; c++ {
		if c.String() == "" {
			t.Fatalf("Counter(%d) has empty name", c)
		}
	}
	e := Event{At: time.Second, Kind: KindOOMKill, Actor: "c3", A: 42}
	if e.String() == "" {
		t.Fatal("empty event string")
	}
}

// TestSkipOverwrittenIsExact holds the ring skip against writing every
// event: a tracer that skips the overwritten head of each burst must end
// with the same Events, Emitted and Dropped as one that writes them all,
// for bursts shorter than, equal to, one past and more than twice the
// ring capacity, with other event kinds emitted between the bursts.
// Both must retain exactly the last min(emitted, cap) events written,
// for a power-of-two capacity and for one that is not.
func TestSkipOverwrittenIsExact(t *testing.T) {
	for _, ringCap := range []int{8, 7} {
		for _, bursts := range [][]int{
			{3}, {ringCap}, {ringCap + 1}, {2*ringCap + 5},
			{3, ringCap + 1, 0, ringCap, 2*ringCap + 5, 1, 3 * ringCap},
		} {
			for _, between := range []int{0, 1, 5} {
				full, skip := New(ringCap), New(ringCap)
				var all []Event // every event emitted, in order
				seq := 0
				other := func() {
					for i := 0; i < between; i++ {
						for _, tr := range []*Tracer{full, skip} {
							tr.Emit(time.Duration(seq), KindKswapd, "kswapd", int64(seq), 0)
						}
						all = append(all, Event{At: time.Duration(seq), Kind: KindKswapd, Actor: "kswapd", A: int64(seq)})
						seq++
					}
				}
				other()
				for _, n := range bursts {
					k := skip.SkipOverwritten(n)
					if want := max(n-ringCap, 0); k != want {
						t.Fatalf("cap %d, bursts %v: SkipOverwritten(%d) = %d, want %d", ringCap, bursts, n, k, want)
					}
					for i := 0; i < n; i++ {
						at := time.Duration(seq)
						full.Emit(at, KindNSUpdate, "ns", int64(i), int64(seq))
						if i >= k {
							skip.Emit(at, KindNSUpdate, "ns", int64(i), int64(seq))
						}
						all = append(all, Event{At: at, Kind: KindNSUpdate, Actor: "ns", A: int64(i), B: int64(seq)})
						seq++
					}
					other()
					want := all[max(len(all)-ringCap, 0):]
					for _, tr := range []*Tracer{full, skip} {
						if tr.Emitted() != uint64(len(all)) || tr.Dropped() != uint64(len(all)-len(want)) {
							t.Fatalf("cap %d, bursts %v, %d between: emitted/dropped %d/%d, want %d/%d",
								ringCap, bursts, between, tr.Emitted(), tr.Dropped(), len(all), len(all)-len(want))
						}
						got := tr.Events()
						if len(got) != len(want) {
							t.Fatalf("cap %d, bursts %v, %d between: %d events retained, want %d", ringCap, bursts, between, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("cap %d, bursts %v, %d between: event %d is %v, want %v", ringCap, bursts, between, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	var nilTr *Tracer
	if nilTr.SkipOverwritten(100) != 0 {
		t.Fatal("nil tracer skipped events")
	}
}
