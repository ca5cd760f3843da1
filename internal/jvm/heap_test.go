package jvm

import (
	"testing"
	"testing/quick"

	"arv/internal/units"
)

func newHeap(reserved, min units.Bytes) *Heap {
	h := &Heap{Reserved: reserved, MinCommitted: min}
	h.InitCommitted(min)
	return h
}

func TestInitCommittedRatio(t *testing.T) {
	h := newHeap(3*units.GiB, 900*units.MiB)
	if h.Committed() != 900*units.MiB {
		t.Fatalf("committed = %v", h.Committed())
	}
	if h.YoungCommitted != 300*units.MiB {
		t.Fatalf("young = %v, want a third", h.YoungCommitted)
	}
	if h.OldCommitted != 600*units.MiB {
		t.Fatalf("old = %v, want two thirds", h.OldCommitted)
	}
}

func TestEdenCapacity(t *testing.T) {
	h := newHeap(3*units.GiB, 900*units.MiB)
	want := units.Bytes(float64(300*units.MiB) * edenFrac)
	if got := h.EdenCapacity(); got != want {
		t.Fatalf("eden = %v, want %v", got, want)
	}
}

func TestCeiling(t *testing.T) {
	h := newHeap(3*units.GiB, 100*units.MiB)
	if h.Ceiling() != 3*units.GiB {
		t.Fatal("non-elastic ceiling must be Reserved")
	}
	h.VirtualMax = units.GiB
	if h.Ceiling() != units.GiB {
		t.Fatal("elastic ceiling must be VirtualMax")
	}
	h.VirtualMax = 5 * units.GiB
	if h.Ceiling() != 3*units.GiB {
		t.Fatal("ceiling must never exceed Reserved")
	}
}

func TestResizeGrowsOnHighOverhead(t *testing.T) {
	h := newHeap(3*units.GiB, 300*units.MiB)
	before := h.Committed()
	d := h.Resize(0.10) // way past the throughput goal
	if d.Delta <= 0 || h.Committed() <= before {
		t.Fatalf("heap did not grow: delta=%v", d.Delta)
	}
}

func TestResizeShrinksOnLowOverhead(t *testing.T) {
	h := newHeap(3*units.GiB, 64*units.MiB)
	h.setCommitted(units.GiB)
	before := h.Committed()
	h.Resize(0.001)
	if h.Committed() >= before {
		t.Fatal("heap did not shrink on negligible GC overhead")
	}
}

func TestResizeRespectsCeilingAndFloor(t *testing.T) {
	h := newHeap(600*units.MiB, 300*units.MiB)
	for i := 0; i < 50; i++ {
		h.Resize(0.5)
	}
	if h.Committed() > 600*units.MiB {
		t.Fatalf("committed %v exceeded ceiling", h.Committed())
	}
	for i := 0; i < 50; i++ {
		h.Resize(0)
	}
	if h.Committed() < 300*units.MiB {
		t.Fatalf("committed %v fell below -Xms", h.Committed())
	}
}

func TestResizeNaturalMaxBindsButLiveWins(t *testing.T) {
	h := newHeap(32*units.GiB, 64*units.MiB)
	h.NaturalMax = 512 * units.MiB
	for i := 0; i < 50; i++ {
		h.Resize(0.5)
	}
	if h.Committed() > 512*units.MiB {
		t.Fatalf("committed %v exceeded the natural footprint", h.Committed())
	}
	// Live data overrides the appetite.
	h.LiveOld = units.GiB
	h.OldUsed = units.GiB
	h.Resize(0.5)
	if h.OldCommitted < units.GiB {
		t.Fatalf("old committed %v cannot hold live data", h.OldCommitted)
	}
}

func TestSetVirtualMaxScenario1(t *testing.T) {
	// Ceiling above committed: nothing changes but the max values.
	h := newHeap(32*units.GiB, 64*units.MiB)
	h.setCommitted(units.GiB)
	d := h.SetVirtualMax(4 * units.GiB)
	if d.Delta != 0 || d.NeedGC {
		t.Fatalf("scenario 1: delta=%v needGC=%v", d.Delta, d.NeedGC)
	}
	if h.VirtualMax != 4*units.GiB {
		t.Fatal("VirtualMax not recorded")
	}
}

func TestSetVirtualMaxScenario2(t *testing.T) {
	// Ceiling between used and committed: committed shrinks.
	h := newHeap(32*units.GiB, 64*units.MiB)
	h.setCommitted(2 * units.GiB)
	h.OldUsed = 512 * units.MiB
	d := h.SetVirtualMax(units.GiB)
	if d.NeedGC {
		t.Fatal("scenario 2 must not demand GC")
	}
	if d.Delta >= 0 {
		t.Fatalf("delta = %v, want shrink", d.Delta)
	}
	if h.Committed() != units.GiB {
		t.Fatalf("committed = %v, want the new ceiling", h.Committed())
	}
}

func TestSetVirtualMaxScenario3(t *testing.T) {
	// Ceiling below used data: shrink to used and demand GCs.
	h := newHeap(32*units.GiB, 64*units.MiB)
	h.setCommitted(2 * units.GiB)
	h.OldUsed = 1536 * units.MiB
	d := h.SetVirtualMax(units.GiB)
	if !d.NeedGC {
		t.Fatal("scenario 3 must demand GC")
	}
	if h.Committed() < h.Used() {
		t.Fatal("committed below used")
	}
}

func TestSetVirtualMaxFloorsAtMinCommitted(t *testing.T) {
	h := newHeap(32*units.GiB, 512*units.MiB)
	h.SetVirtualMax(64 * units.MiB)
	if h.VirtualMax != 512*units.MiB {
		t.Fatalf("VirtualMax = %v, want floored at -Xms", h.VirtualMax)
	}
}

// TestHeapInvariantsProperty: under random resize/virtualmax/usage
// sequences, committed stays within [MinCommitted, Reserved], the old
// generation always holds OldUsed... and generation sizes never go
// negative.
func TestHeapInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := newHeap(4*units.GiB, 128*units.MiB)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				h.Resize(float64(op%100) / 500)
			case 1:
				h.SetVirtualMax(units.Bytes(op) * units.MiB / 4)
			case 2:
				h.EdenUsed = units.MinBytes(units.Bytes(op)*units.MiB/16, h.EdenCapacity())
			case 3:
				h.OldUsed = units.Bytes(op) * units.MiB / 8
				if h.OldUsed > 2*units.GiB {
					h.OldUsed = 2 * units.GiB
				}
				h.LiveOld = h.OldUsed / 2
			}
			if h.YoungCommitted < 0 || h.OldCommitted < 0 {
				return false
			}
			if h.Committed() > h.Reserved {
				return false
			}
			if h.Committed() < h.MinCommitted/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
