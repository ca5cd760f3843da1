package autoscaler

import (
	"math"
	"strings"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/units"
	"arv/internal/workloads"
)

func TestPolicyNamesAndStaticDecide(t *testing.T) {
	for pol, want := range map[Policy]string{
		Static{}:     "static",
		Target{}:     "target",
		SharesOnly{}: "shares",
		Banked{}:     "banked",
	} {
		if pol.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", pol, pol.Name(), want)
		}
	}
	if d := (Static{}).Decide(Input{UsedCPUs: 99, Throttled: true}); d != (Decision{}) {
		t.Fatalf("Static.Decide acted: %+v", d)
	}
}

func TestTargetGrowsFromBaselineWhenUnlimited(t *testing.T) {
	// A throttled round with no quota (+Inf) must grow from the baseline,
	// not from infinity.
	d := Target{}.Decide(Input{UsedCPUs: 1, QuotaCPUs: math.Inf(1), BaseCPUs: 2, Throttled: true})
	if !d.Resize || d.CPUs != 3 {
		t.Fatalf("decision = %+v, want growth to 2*1.5 = 3 CPUs", d)
	}
}

func TestTargetManageMemDecision(t *testing.T) {
	d := Target{ManageMem: true}.Decide(Input{UsedCPUs: 1, Resident: units.GiB})
	if want := units.GiB + units.GiB/4; d.MemHard != want {
		t.Fatalf("MemHard = %v, want resident+25%% = %v", d.MemHard, want)
	}
	if d := (Target{}).Decide(Input{UsedCPUs: 1, Resident: units.GiB}); d.MemHard != 0 {
		t.Fatal("memory managed without ManageMem")
	}
}

func TestBankedDefaultsAndCap(t *testing.T) {
	// Zero-value Banked: cap defaults to 2000 ms, burst to the baseline.
	d := Banked{}.Decide(Input{Interval: time.Second, BaseCPUs: 4, UsedCPUs: 0, BankMS: 1500})
	if d.BankMS != 2000 {
		t.Fatalf("bank = %d, want accrual capped at the 2000 ms default", d.BankMS)
	}
	// A throttled round with a part-full bank draws what the bank can
	// cover (150 ms over a 100 ms window = 1.5 CPUs), not the full burst.
	d = Banked{}.Decide(Input{
		Interval: 100 * time.Millisecond,
		BaseCPUs: 2, UsedCPUs: 2, BankMS: 150, Throttled: true,
	})
	if !d.Resize || d.CPUs != 3.5 || d.BankMS != 0 || d.BankSpentMS != 150 {
		t.Fatalf("decision = %+v, want a 1.5-CPU boost spending the whole 150 ms bank", d)
	}
}

func TestMemClampMarksClamped(t *testing.T) {
	s := Spec{Name: "x", MinCPUs: 1, MaxCPUs: 4, MinMem: units.MiB, MaxMem: units.GiB}
	st := &state{init: true, curCPUs: 2, baseCPUs: 2}
	act := decideOne(Target{ManageMem: true}, s, 0.1, 1, st,
		Input{UsedCPUs: 2, Resident: 2 * units.GiB, HardLimit: 512 * units.MiB})
	if !act.writeMem || act.memHard != units.GiB || !act.clamped {
		t.Fatalf("action = %+v, want a clamped write at MaxMem", act)
	}
	if act.memSoft != units.GiB/2 {
		t.Fatalf("soft limit = %v, want half the hard limit", act.memSoft)
	}
}

func TestSharesForFloor(t *testing.T) {
	if got := sharesFor(0.0001); got != 2 {
		t.Fatalf("sharesFor(0.0001) = %d, want the floor of 2", got)
	}
}

func TestManagePanics(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: units.GiB, Seed: 1})
	a := Attach(h, Config{Policy: Target{}})
	for name, s := range map[string]Spec{
		"empty name":    {},
		"inverted cpus": {Name: "x", MinCPUs: 4, MaxCPUs: 2},
		"inverted mem":  {Name: "x", MinMem: units.GiB, MaxMem: units.MiB},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			a.Manage(s)
		}()
	}
}

func TestNilPolicyAttachIsInert(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: units.GiB, Seed: 1})
	a := Attach(h, Config{Specs: []Spec{{Name: "svc"}}})
	if a.Policy() != nil {
		t.Fatal("nil policy rewritten")
	}
	h.Run(time.Second)
	if a.Rounds() != 0 || a.HeldRounds() != 0 {
		t.Fatalf("inert autoscaler ran: rounds=%d held=%d", a.Rounds(), a.HeldRounds())
	}
	if s := a.String(); !strings.Contains(s, "static") || !strings.Contains(s, "targets=1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestVersionRegressionPanics(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: units.GiB, Seed: 1})
	a := Attach(h, Config{Policy: Target{}, Specs: []Spec{{Name: "svc"}}})
	a.lastVersion = 1 << 62 // simulate a corrupted cursor
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on version regression")
		}
	}()
	a.round(h.Now())
}

func TestTargetManagesMemoryEndToEnd(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 1})
	h.EnableTelemetry(0)
	ctr := h.Runtime.Create(container.Spec{Name: "svc", MemHard: 4 * units.GiB})
	ctr.Exec("memhog")
	// The hog must be full before the first control round shrinks the
	// hard limit beneath its still-growing resident set.
	workloads.NewMemHog(h, ctr, 512*units.MiB, 8*units.GiB, 0).Start()
	Attach(h, Config{
		Interval: 100 * time.Millisecond,
		Policy:   Target{ManageMem: true},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 4, MinMem: 256 * units.MiB, MaxMem: 2 * units.GiB}},
	})
	h.Run(2 * time.Second)
	got := ctr.Cgroup.Mem.HardLimit
	if got >= 2*units.GiB || got <= 512*units.MiB {
		t.Fatalf("hard limit = %v, want tracked down to resident+headroom", got)
	}
}
