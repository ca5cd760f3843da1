package webserver

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/units"
	"arv/internal/workloads"
)

func newTestHost() *host.Host {
	return host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
}

func serve(t *testing.T, h *host.Host, spec container.Spec, cfg Config) *Server {
	t.Helper()
	ctr := h.Runtime.Create(spec)
	ctr.Exec("httpd")
	s := New(h, ctr, cfg)
	s.Start()
	return s
}

func TestServesAllRequestsWhenUnderloaded(t *testing.T) {
	h := newTestHost()
	s := serve(t, h, container.Spec{Name: "web"}, Config{
		Sizing:      SizeHost,
		RequestRate: 100,
		ServiceCost: 0.01, // demand: 1 CPU of 8
		Duration:    2 * time.Second,
	})
	if !h.RunUntilDone(time.Minute) {
		t.Fatalf("server did not drain (queue %d)", len(s.queue))
	}
	if s.Stats.Arrived != 200 {
		t.Fatalf("arrived = %d, want 200", s.Stats.Arrived)
	}
	if s.Stats.Served != s.Stats.Arrived || s.Stats.Dropped != 0 {
		t.Fatalf("served %d dropped %d of %d", s.Stats.Served, s.Stats.Dropped, s.Stats.Arrived)
	}
	if s.Stats.MeanLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestDropsWhenQueueFull(t *testing.T) {
	h := newTestHost()
	s := serve(t, h, container.Spec{Name: "web", CPUQuotaUS: 100_000, CPUPeriodUS: 100_000}, Config{
		Sizing:      SizeStatic,
		RequestRate: 2000, // demand: 20 CPUs into a 1-CPU quota
		ServiceCost: 0.01,
		QueueLimit:  32,
		Duration:    time.Second,
	})
	h.RunUntilDone(5 * time.Minute)
	if s.Stats.Dropped == 0 {
		t.Fatal("overloaded server dropped nothing")
	}
	if s.Stats.Served+s.Stats.Dropped != s.Stats.Arrived {
		t.Fatal("request accounting inconsistent")
	}
}

func TestSizingPolicies(t *testing.T) {
	h := newTestHost()
	spec := container.Spec{Name: "web", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}
	ctr := h.Runtime.Create(spec)
	ctr.Exec("httpd")
	hostSized := New(h, ctr, Config{Sizing: SizeHost, RequestRate: 1, ServiceCost: 0.001})
	hostSized.Start()
	if hostSized.ActiveWorkers() != 8 {
		t.Fatalf("host sizing = %d, want 8", hostSized.ActiveWorkers())
	}
	staticSized := New(h, ctr, Config{Sizing: SizeStatic, RequestRate: 1, ServiceCost: 0.001})
	staticSized.Start()
	if staticSized.ActiveWorkers() != 2 {
		t.Fatalf("static sizing = %d, want quota-derived 2", staticSized.ActiveWorkers())
	}
	adaptive := New(h, ctr, Config{Sizing: SizeAdaptive, RequestRate: 1, ServiceCost: 0.001})
	adaptive.Start()
	if got := adaptive.ActiveWorkers(); got != ctr.NS.EffectiveCPU() {
		t.Fatalf("adaptive sizing = %d, want E_CPU %d", got, ctr.NS.EffectiveCPU())
	}
}

func TestAdaptiveResizesUnderContention(t *testing.T) {
	h := newTestHost()
	specs := []container.Spec{{Name: "web"}, {Name: "noise"}}
	web := h.Runtime.Create(specs[0])
	web.Exec("httpd")
	noise := h.Runtime.Create(specs[1])
	noise.Exec("hog")

	s := New(h, web, Config{
		Sizing:      SizeAdaptive,
		RequestRate: 400,
		ServiceCost: 0.01, // demand 4 CPUs
	})
	s.Start()
	h.Run(2 * time.Second)
	before := s.ActiveWorkers()

	workloads.NewSysbench(h, noise, 8, 1e9).Start()
	h.Run(6 * time.Second)
	after := s.ActiveWorkers()
	if after >= before {
		t.Fatalf("workers did not shrink under contention: %d -> %d", before, after)
	}
}

func TestAdaptiveBeatsHostSizingUnderContention(t *testing.T) {
	run := func(sizing Sizing) *Stats {
		h := newTestHost()
		specs := []container.Spec{{Name: "web", Gamma: 0.6}, {Name: "noise"}}
		web := h.Runtime.Create(specs[0])
		web.Exec("httpd")
		noise := h.Runtime.Create(specs[1])
		noise.Exec("hog")
		workloads.NewSysbench(h, noise, 8, 1e9).Start()
		h.Run(3 * time.Second) // settle effective CPU at the fair share

		s := New(h, web, Config{
			Sizing:      sizing,
			RequestRate: 300,
			ServiceCost: 0.01, // demand 3 CPUs of the 4-CPU fair share
			Duration:    4 * time.Second,
		})
		s.Start()
		h.RunUntil(s.Done, 10*time.Minute)
		return &s.Stats
	}
	hostStats := run(SizeHost)
	adaptiveStats := run(SizeAdaptive)
	if adaptiveStats.Served < hostStats.Served {
		t.Fatalf("adaptive served %d < host-sized %d", adaptiveStats.Served, hostStats.Served)
	}
	if adaptiveStats.PercentileLatency(99) > hostStats.PercentileLatency(99) {
		t.Fatalf("adaptive p99 %v worse than host-sized %v",
			adaptiveStats.PercentileLatency(99), hostStats.PercentileLatency(99))
	}
}

func TestStopDrains(t *testing.T) {
	h := newTestHost()
	s := serve(t, h, container.Spec{Name: "web"}, Config{
		Sizing: SizeHost, RequestRate: 50, ServiceCost: 0.01,
		Duration: time.Second,
	})
	if !h.RunUntilDone(time.Minute) {
		t.Fatal("server did not drain after arrivals stopped")
	}
	if len(s.queue) != 0 || s.inFlight() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestPercentiles(t *testing.T) {
	s := &Stats{latencies: []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}}
	if got := s.PercentileLatency(50); got != 2*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.PercentileLatency(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.PercentileLatency(1); got != time.Millisecond {
		t.Fatalf("p1 = %v", got)
	}
	empty := &Stats{}
	if empty.PercentileLatency(99) != 0 || empty.MeanLatency() != 0 {
		t.Fatal("empty stats should report zero")
	}
}

func TestConfigValidation(t *testing.T) {
	h := newTestHost()
	ctr := h.Runtime.Create(container.Spec{Name: "web"})
	ctr.Exec("httpd")
	for name, cfg := range map[string]Config{
		"rate": {ServiceCost: 0.1},
		"cost": {RequestRate: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(h, ctr, cfg)
		}()
	}
}

func TestSizingString(t *testing.T) {
	for s, want := range map[Sizing]string{
		SizeHost: "host", SizeStatic: "static", SizeAdaptive: "adaptive",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
}
