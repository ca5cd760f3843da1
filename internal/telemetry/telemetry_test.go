package telemetry

import (
	"testing"
	"time"
)

// TestZeroTracerCountsWithoutRing: the zero Tracer, the one every
// component is built with, counts and records no events.
func TestZeroTracerCountsWithoutRing(t *testing.T) {
	var tr Tracer
	if tr.Enabled() {
		t.Fatal("ring-less tracer reports enabled")
	}
	tr.Emit(0, KindKswapd, "g", 1, 2)
	tr.Add(CtrSteps, 5)
	tr.Max(CtrStalenessMax, 7)
	if tr.Count(CtrSteps) != 5 || tr.Counters()["sysns.staleness_max_ns"] != 7 {
		t.Fatalf("counters = %v, want steps 5 and staleness max 7", tr.Counters())
	}
	if tr.Events() != nil || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatalf("ring-less tracer recorded events: %v, emitted %d, dropped %d", tr.Events(), tr.Emitted(), tr.Dropped())
	}
	tr.Reset()
	if tr.Count(CtrSteps) != 0 {
		t.Fatal("Reset left a counter")
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
	kinds := []Kind{KindThrottle, KindUnthrottle, KindKswapd,
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
