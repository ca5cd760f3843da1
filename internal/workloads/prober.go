package workloads

import (
	"fmt"
	"sort"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Prober is a resource-probing load generator: every Interval it issues
// a burst of Burst probes (sysconf CPU/memory plus a pseudo-file read)
// against its container's published view snapshot — the ARC-V /
// AgentCgroup consumption pattern, where an external adapter polls
// effective views at high rate. Because it reads the same immutable
// snapshots the fsd daemon serves, its staleness and version-lag
// statistics characterize the snapshot publication pipeline itself, in
// deterministic virtual time.
type Prober struct {
	Name string

	h   *host.Host
	ctr *container.Container

	// Interval separates bursts; Burst is probes per burst; Duration is
	// how long the prober runs after Start.
	Interval time.Duration
	Burst    int
	Duration time.Duration

	next     sim.Time
	deadline sim.Time
	done     bool

	// Accumulated statistics (valid any time; final once Done).
	Probes        uint64 // individual probes issued
	Bursts        uint64 // bursts completed
	FreshBursts   uint64 // bursts that saw a snapshot cut this tick (age 0)
	StaleBursts   uint64 // bursts that saw an older snapshot
	MaxAge        time.Duration
	VersionsSeen  uint64 // distinct snapshot versions observed
	MaxVersionLag uint64 // largest version jump between consecutive bursts
	MissedBursts  uint64 // bursts skipped: snapshot did not carry the container yet
	MinECPU       int
	MaxECPU       int

	lastVersion uint64
	probeSum    int64 // consumes probe results so none can be elided

	// ages records the snapshot age seen by every burst (the per-probe
	// staleness latency distribution; all probes of one burst read the
	// same snapshot, so one sample per burst is the full distribution).
	ages []time.Duration
}

// NewProber builds a prober for ctr issuing burst probes every interval
// for the given duration. Call Start.
func NewProber(h *host.Host, ctr *container.Container, interval time.Duration, burst int, duration time.Duration) *Prober {
	if burst <= 0 {
		burst = 1
	}
	if interval <= 0 {
		interval = h.Tick()
	}
	return &Prober{
		Name:     fmt.Sprintf("%s/prober", ctr.Name),
		h:        h,
		ctr:      ctr,
		Interval: interval,
		Burst:    burst,
		Duration: duration,
	}
}

// Start registers the prober with the host; the first burst runs at the
// next program poll. Starting a prober warms snapshot publication, so
// the first burst reads a current view.
func (p *Prober) Start() {
	p.h.Monitor.WarmSnapshot()
	now := p.h.Now()
	p.next = now
	p.deadline = now + sim.Time(p.Duration)
	p.h.AddProgram(p)
}

// Done implements host.Program.
func (p *Prober) Done() bool { return p.done }

// Poll implements host.Program: at each burst instant, load the current
// snapshot, issue the probes, and fold the observation into the
// staleness and version-lag statistics.
func (p *Prober) Poll(now sim.Time) {
	if p.done {
		return
	}
	if p.ctr.State() == container.Stopped || now >= p.deadline {
		p.done = true
		return
	}
	if now < p.next {
		return
	}
	p.next = now + sim.Time(p.Interval)

	snap := p.h.Monitor.Snapshot()
	cv := snap.Container(p.ctr.Name)
	if cv == nil {
		// The published snapshot does not carry this container yet: the
		// warm-up burst raced the first post-attach publish (a monitor
		// with zero tracked pods at Start publishes a container-less
		// snapshot), or the container detached mid-teardown. A real
		// poller retries; so do we — a genuinely dead container exits
		// through the Stopped check on the next poll.
		p.MissedBursts++
		return
	}
	view := sysfs.SnapView{C: cv, Host: &snap.Host}
	for i := 0; i < p.Burst; i++ {
		ncpu, _ := view.Sysconf(sysfs.ScNProcessorsOnln)
		pages, _ := view.Sysconf(sysfs.ScPhysPages)
		p.probeSum += ncpu + pages + int64(view.OnlineCPUs()) + int64(view.TotalMemory()/units.PageSize)
	}
	p.Probes += uint64(p.Burst)
	p.Bursts++

	age := time.Duration(now - snap.At)
	p.ages = append(p.ages, age)
	if age <= 0 {
		p.FreshBursts++
	} else {
		p.StaleBursts++
		if age > p.MaxAge {
			p.MaxAge = age
		}
	}
	if snap.Version != p.lastVersion {
		p.VersionsSeen++
		if p.lastVersion != 0 {
			if lag := snap.Version - p.lastVersion; lag > p.MaxVersionLag {
				p.MaxVersionLag = lag
			}
		}
		p.lastVersion = snap.Version
	}
	if e := cv.EffectiveCPU; p.MinECPU == 0 || e < p.MinECPU {
		p.MinECPU = e
	}
	if e := cv.EffectiveCPU; e > p.MaxECPU {
		p.MaxECPU = e
	}

	p.h.Trace.Add(telemetry.CtrSnapshotReads, uint64(p.Burst))
	if age > 0 {
		p.h.Trace.Max(telemetry.CtrSnapshotLagMax, uint64(age))
	}
}

// AgePercentile returns the p-th percentile (0 < p <= 100) of the
// per-burst snapshot age distribution — the staleness a consumer
// polling at this cadence actually experiences, not just its worst
// case.
func (p *Prober) AgePercentile(pct float64) time.Duration {
	if len(p.ages) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(p.ages))
	copy(sorted, p.ages)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(pct/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
