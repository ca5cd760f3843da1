package memctl

import (
	"testing"
	"testing/quick"
	"time"

	"arv/internal/telemetry"
	"arv/internal/units"
)

func newCtl(total units.Bytes) *Controller {
	return New(Config{Total: total})
}

func TestChargeUnchargeAccounting(t *testing.T) {
	c := newCtl(4 * units.GiB)
	g := c.NewGroup("a")
	if _, ok := c.Charge(g, units.GiB, 0); !ok {
		t.Fatal("charge failed")
	}
	if g.Resident() != units.GiB {
		t.Fatalf("resident = %v", g.Resident())
	}
	if c.Free() != 3*units.GiB {
		t.Fatalf("free = %v", c.Free())
	}
	c.Uncharge(g, 512*units.MiB)
	if g.Resident() != 512*units.MiB || c.Free() != 3*units.GiB+512*units.MiB {
		t.Fatalf("after uncharge: resident=%v free=%v", g.Resident(), c.Free())
	}
}

func TestHardLimitForcesOwnSwap(t *testing.T) {
	c := newCtl(8 * units.GiB)
	g := c.NewGroup("a")
	g.HardLimit = units.GiB
	stall, ok := c.Charge(g, 2*units.GiB, 0)
	if !ok {
		t.Fatal("charge should succeed by swapping")
	}
	if stall == 0 {
		t.Fatal("swap should stall")
	}
	if g.Resident() != units.GiB {
		t.Fatalf("resident = %v, want hard limit", g.Resident())
	}
	if g.Swapped() != units.GiB {
		t.Fatalf("swapped = %v, want 1GiB", g.Swapped())
	}
	if g.Footprint() != 2*units.GiB {
		t.Fatalf("footprint = %v", g.Footprint())
	}
}

func TestKswapdReclaimsOverSoftGroups(t *testing.T) {
	c := newCtl(4 * units.GiB)
	soft := c.NewGroup("soft")
	soft.SoftLimit = 512 * units.MiB
	if _, ok := c.Charge(soft, 2*units.GiB, 0); !ok {
		t.Fatal("charge failed")
	}
	hog := c.NewGroup("hog")
	// Fill memory down past the low watermark.
	if _, ok := c.Charge(hog, c.Free()-c.LowWM+10*units.MiB, 0); !ok {
		t.Fatal("hog charge failed")
	}
	if c.KswapdRuns() == 0 {
		t.Fatal("kswapd did not run")
	}
	if soft.Swapped() == 0 {
		t.Fatal("over-soft group was not reclaimed")
	}
	if c.Free() < c.MinWM {
		t.Fatalf("free %v below min watermark", c.Free())
	}
}

// TestKswapdVictimOrder pins kswapd's victim choice: groups over their
// soft limits are reclaimed largest excess first, and of two with equal
// excess the earlier-created one goes first. Each round reclaims a known
// amount (free memory is driven exactly HighWM-short of the high
// watermark), so the split across groups shows the order.
func TestKswapdVictimOrder(t *testing.T) {
	c := New(Config{Total: 4 * units.GiB, MinWM: 64 * units.MiB, LowWM: 128 * units.MiB, HighWM: 256 * units.MiB})
	over := func(name string, excess units.Bytes) *Group {
		g := c.NewGroup(name)
		g.SoftLimit = 100 * units.MiB
		if _, ok := c.Charge(g, g.SoftLimit+excess, 0); !ok {
			t.Fatalf("charge of %s failed", name)
		}
		return g
	}
	a := over("a", 100*units.MiB)
	b := over("b", 300*units.MiB)
	cc := over("c", 200*units.MiB)
	d := over("d", 300*units.MiB) // ties b, created after it
	hog := c.NewGroup("hog")      // no soft limit: never kswapd's victim
	reclaim := func(n units.Bytes) {
		t.Helper()
		if _, ok := c.Charge(hog, c.Free()-c.HighWM+n, 0); !ok {
			t.Fatal("hog charge failed")
		}
		if c.Free() != c.HighWM {
			t.Fatalf("free = %v after reclaim, want the high watermark %v", c.Free(), c.HighWM)
		}
	}
	want := func(round string, sw ...units.Bytes) {
		t.Helper()
		for i, g := range []*Group{a, b, cc, d, hog} {
			if g.Swapped() != sw[i] {
				t.Fatalf("%s: %s swapped %v, want %v", round, g.Name, g.Swapped(), sw[i])
			}
		}
	}
	// Round 1 reclaims 450 MiB: all of b's 300 MiB excess (b ties d
	// and is older), then 150 MiB of d's.
	reclaim(450 * units.MiB)
	want("round 1", 0, 300*units.MiB, 0, 150*units.MiB, 0)
	// Round 2 reclaims 300 MiB from excesses a 100, c 200, d 150:
	// all of c's, then 100 MiB of d's, and none of a's.
	reclaim(300 * units.MiB)
	want("round 2", 0, 300*units.MiB, 200*units.MiB, 250*units.MiB, 0)
}

func TestKswapdStopsAtHighWatermark(t *testing.T) {
	c := newCtl(4 * units.GiB)
	victim := c.NewGroup("victim")
	victim.SoftLimit = 64 * units.MiB
	c.Charge(victim, 3*units.GiB, 0)
	hog := c.NewGroup("hog")
	c.Charge(hog, c.Free()-c.LowWM+units.MiB, 0)
	// kswapd should have stopped near the high watermark, not taken the
	// victim all the way down to its soft limit.
	if victim.Swapped() > units.GiB {
		t.Fatalf("kswapd over-reclaimed: swapped %v", victim.Swapped())
	}
}

func TestDirectReclaimBelowMin(t *testing.T) {
	c := newCtl(4 * units.GiB)
	tr := c.Trace
	a := c.NewGroup("a") // no soft limit: kswapd never touches it
	c.Charge(a, 3*units.GiB, 0)
	b := c.NewGroup("b")
	if _, ok := c.Charge(b, c.Free()-c.MinWM/2, 0); !ok {
		t.Fatal("charge failed")
	}
	if tr.Count(telemetry.CtrDirectReclaims) == 0 {
		t.Fatal("direct reclaim did not run")
	}
	if a.Swapped() == 0 {
		t.Fatal("direct reclaim should take from the largest group")
	}
}

func TestOOMKillOnSwapExhaustion(t *testing.T) {
	c := New(Config{Total: 2 * units.GiB, SwapCapacity: 256 * units.MiB})
	tr := c.Trace
	g := c.NewGroup("a")
	g.HardLimit = 512 * units.MiB
	_, ok := c.Charge(g, units.GiB, 0) // needs 512MiB of swap > 256MiB
	if ok {
		t.Fatal("charge should have OOM-killed")
	}
	if !g.oomKilled {
		t.Fatal("group not marked OOM-killed")
	}
	if n := tr.Count(telemetry.CtrOOMKills); n != 1 {
		t.Fatalf("OOM kills = %d", n)
	}
	if g.Resident() != 0 {
		t.Fatal("OOM kill must free the victim's memory")
	}
	if _, ok := c.Charge(g, units.MiB, 0); ok {
		t.Fatal("charges after OOM kill must fail")
	}
}

func TestTouchFaultsOnlyHotSpill(t *testing.T) {
	c := newCtl(8 * units.GiB)
	g := c.NewGroup("a")
	g.HardLimit = units.GiB
	c.Charge(g, 3*units.GiB, 0) // 1 resident, 2 swapped
	// Hot set fits in resident memory: cold pages absorb all the swap,
	// so touching hot data must not fault.
	g.Hot = 512 * units.MiB
	if st := c.Touch(g, 256*units.MiB, 0); st != 0 {
		t.Fatalf("touch faulted %v despite hot set fitting", st)
	}
	// Hot set twice the resident memory: half of every touch faults.
	g.Hot = 2 * units.GiB
	st := c.Touch(g, 512*units.MiB, 0)
	if st == 0 {
		t.Fatal("touch should fault when hot set exceeds resident")
	}
}

func TestTouchUnknownHotTreatsAllHot(t *testing.T) {
	c := newCtl(8 * units.GiB)
	g := c.NewGroup("a")
	g.HardLimit = units.GiB
	c.Charge(g, 2*units.GiB, 0)
	if st := c.Touch(g, 100*units.MiB, 0); st == 0 {
		t.Fatal("with unknown hot set, swap-backed touch must fault")
	}
	_, in := g.SwapTraffic()
	if in == 0 {
		t.Fatal("swap-in traffic not recorded")
	}
}

func TestSwapDeviceQueueing(t *testing.T) {
	c := newCtl(8 * units.GiB)
	a := c.NewGroup("a")
	a.HardLimit = units.GiB
	b := c.NewGroup("b")
	b.HardLimit = units.GiB
	st1, _ := c.Charge(a, 2*units.GiB, 0)
	st2, _ := c.Charge(b, 2*units.GiB, 0) // queues behind a's swap-out
	if st2 <= st1 {
		t.Fatalf("second swap burst should queue: %v then %v", st1, st2)
	}
	// After the device drains, a same-size burst costs st1 again.
	later := time.Duration(st2) * 2
	cD := c.NewGroup("c")
	cD.HardLimit = units.GiB
	st3, _ := c.Charge(cD, 2*units.GiB, later)
	if st3 != st1 {
		t.Fatalf("drained device: stall %v, want %v", st3, st1)
	}
}

func TestRemoveGroupFreesEverything(t *testing.T) {
	c := newCtl(4 * units.GiB)
	g := c.NewGroup("a")
	g.HardLimit = units.GiB
	c.Charge(g, 2*units.GiB, 0)
	c.RemoveGroup(g)
	if c.Free() != 4*units.GiB {
		t.Fatalf("free = %v after removal", c.Free())
	}
	if c.Swap().Used() != 0 {
		t.Fatalf("swap used = %v after removal", c.Swap().Used())
	}
}

func TestWatermarkDefaults(t *testing.T) {
	c := newCtl(128 * units.GiB)
	if c.MinWM != 512*units.MiB {
		t.Fatalf("min watermark = %v", c.MinWM)
	}
	if !(c.MinWM < c.LowWM && c.LowWM < c.HighWM) {
		t.Fatalf("watermark ordering broken: %v %v %v", c.MinWM, c.LowWM, c.HighWM)
	}
	small := newCtl(units.GiB)
	if small.MinWM != 64*units.MiB {
		t.Fatalf("small-host min watermark = %v, want 64MiB floor", small.MinWM)
	}
}

// TestConservationProperty: under arbitrary charge/uncharge/touch
// sequences, resident+free+swapped bookkeeping stays consistent and
// nothing goes negative.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newCtl(1 * units.GiB)
		g1 := c.NewGroup("g1")
		g1.HardLimit = 256 * units.MiB
		g2 := c.NewGroup("g2")
		g2.SoftLimit = 128 * units.MiB
		groups := []*Group{g1, g2}
		now := time.Duration(0)
		for _, op := range ops {
			g := groups[int(op)%2]
			amt := units.Bytes(op%512) * units.MiB / 8
			now += time.Millisecond
			switch (op / 2) % 3 {
			case 0:
				c.Charge(g, amt, now)
			case 1:
				c.Uncharge(g, units.MinBytes(amt, g.Resident()+g.Swapped()))
			case 2:
				c.Touch(g, amt, now)
			}
			var resident units.Bytes
			var swapped units.Bytes
			for _, gg := range groups {
				if gg.Resident() < 0 || gg.Swapped() < 0 {
					return false
				}
				resident += gg.Resident()
				swapped += gg.Swapped()
			}
			if resident+c.Free() != c.Total() {
				return false
			}
			if swapped != c.Swap().Used() {
				return false
			}
			if c.Free() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
