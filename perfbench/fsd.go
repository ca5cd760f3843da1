package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"arv/internal/fsd"
	"arv/internal/scalebench"
	"arv/internal/sysfs"
)

// The fsd workload replays the prober model of the ext-probe experiment
// (internal/experiments/probe.go, internal/workloads/prober.go) over
// HTTP: three probers, each polling one container's view in bursts, one
// probe reading the container's online CPU count and its memory size.
// The experiment's probers read snapshots in process, at nanoseconds
// per probe; over HTTP a read costs tens of microseconds, so the burst
// sizes are kept and the intervals stretched by fsdStretch to fit the
// load on a couple of CPUs.
const (
	// fsdContainers sizes the served host: the 4096-container point of
	// the scale trajectory, under limit churn, so the pump's steps and
	// snapshot publications compete with the probers for the CPUs.
	fsdContainers = 4096
	// fsdStretch is the factor the probers' intervals are stretched by.
	fsdStretch = 16
	// fsdPump is the pump interval: every 1 ms of wall clock the host
	// advances 1 ms of simulated time.
	fsdPump = time.Millisecond
	// fsdLate is how far past its due time a prober may wake before its
	// burst counts as late. The runtime's timers alone wake a goroutine
	// up to a millisecond late.
	fsdLate = 2 * time.Millisecond
	// fsdSetups is how many times a run builds the host and server.
	fsdSetups = 21
)

// fsdProbers are the ext-probe experiment's probers: bursts of 16, 64
// and 256 probes every 1, 5 and 25 ms (before stretching).
var fsdProbers = []struct {
	every time.Duration
	burst int
}{
	{time.Millisecond, 16},
	{5 * time.Millisecond, 64},
	{25 * time.Millisecond, 256},
}

// fsdProbe lists the pseudo-files one probe reads, %s being the
// container: the files behind sysconf(_SC_NPROCESSORS_ONLN) and
// sysconf(_SC_PHYS_PAGES).
var fsdProbe = [...]string{
	"/containers/%s/sys/devices/system/cpu/online",
	"/containers/%s/proc/meminfo",
}

// fsdRig is one served host: the simulation, the fsd server on a
// loopback listener, and one client connection per prober.
type fsdRig struct {
	b      *scalebench.Bench
	srv    *fsd.Server
	hs     *http.Server
	served chan error
	conns  []*fsdConn
	names  []string
}

// fsdConn is one keep-alive client connection. Requests are written
// and responses parsed directly on it, so a read's latency holds no
// client-side goroutine handoffs, only the server's work and the
// loopback.
type fsdConn struct {
	c  net.Conn
	br *bufio.Reader
}

func startFSD(seed uint64) (*fsdRig, error) {
	cfg := scalebench.Defaults(fsdContainers)
	cfg.Seed = seed
	b := scalebench.Build(cfg)
	b.H.Run(cfg.Warmup)
	r := &fsdRig{b: b, srv: fsd.NewServer(b.H), served: make(chan error, 1)}
	for _, c := range b.H.Runtime.Containers() {
		r.names = append(r.names, c.Name)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	r.hs = &http.Server{Handler: r.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { r.served <- r.hs.Serve(ln) }()
	for range fsdProbers {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("connecting to fsd: %w", err)
		}
		conn := &fsdConn{c: c, br: bufio.NewReader(c)}
		r.conns = append(r.conns, conn)
		if _, _, err := conn.get("/healthz"); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close stops the server and waits for it to exit.
func (r *fsdRig) close() {
	for _, c := range r.conns {
		c.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	<-r.served
}

// get performs one read and returns the body and the snapshot version
// it was served from.
func (c *fsdConn) get(path string) (string, uint64, error) {
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return "", 0, err
	}
	if _, err := fmt.Fprintf(c.c, "GET %s HTTP/1.1\r\nHost: fsd\r\n\r\n", path); err != nil {
		return "", 0, fmt.Errorf("GET %s: %w", path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return "", 0, fmt.Errorf("GET %s: %w", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, fmt.Errorf("GET %s: reading body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	v, err := strconv.ParseUint(resp.Header.Get("X-Arv-Snapshot-Version"), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("GET %s: bad snapshot version header: %w", path, err)
	}
	return string(body), v, nil
}

// checkBody validates one served pseudo-file beyond its status.
func checkBody(path, body string, ncpu int) error {
	if strings.HasSuffix(path, "/meminfo") {
		var kb int64
		if _, err := fmt.Sscanf(body, "MemTotal: %d kB", &kb); err != nil || kb <= 0 {
			return fmt.Errorf("GET %s: malformed meminfo %q", path, body)
		}
		return nil
	}
	n := 1
	if hi, ok := strings.CutPrefix(strings.TrimSpace(body), "0-"); ok {
		k, err := strconv.Atoi(hi)
		if err != nil {
			return fmt.Errorf("GET %s: malformed cpu list %q", path, body)
		}
		n = k + 1
	} else if strings.TrimSpace(body) != "0" {
		return fmt.Errorf("GET %s: malformed cpu list %q", path, body)
	}
	if n < 1 || n > ncpu {
		return fmt.Errorf("GET %s: %d effective CPUs on a %d-CPU host", path, n, ncpu)
	}
	return nil
}

// render produces a container pseudo-file's content directly from the
// current snapshot, as the server should have served it.
func (r *fsdRig) render(name, file string) (string, error) {
	snap := r.b.H.Monitor.Snapshot()
	c := snap.Container(name)
	if c == nil {
		return "", fmt.Errorf("no container %s in snapshot", name)
	}
	return sysfs.SnapView{C: c, Host: &snap.Host}.ReadFile(strings.TrimPrefix(file, "/containers/%s"))
}

// proberRun is what one prober hands back.
type proberRun struct {
	lats       []time.Duration // per probe, from when it was issued
	probes     int64
	failed     int64
	bursts     int64
	lateBursts int64
	problems   []string
}

// probe runs one prober over the window: a burst of burst probes of
// container name every interval, each probe's reads issued in order on
// c. A probe is timed from when it is issued until its last answer
// arrives; the answers are checked after that. It is issued once the
// probe before it in its burst is checked, or, for a burst's first
// probe, when the prober wakes for the burst, or at the burst's due time
// if the previous burst overran. So time a burst waits behind a slow one
// counts; a prober waking late is counted in lateBursts instead.
func (r *fsdRig) probe(c *fsdConn, name string, interval time.Duration, burst int, start time.Time, window time.Duration, ncpu int) *proberRun {
	pr := &proberRun{}
	var paths [len(fsdProbe)]string
	for i, f := range fsdProbe {
		paths[i] = fmt.Sprintf(f, name)
	}
	var last uint64
	for due := start; due.Sub(start) < window; due = due.Add(interval) {
		t0 := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			if t0 = time.Now(); t0.Sub(due) > fsdLate {
				pr.lateBursts++
			}
		}
		pr.bursts++
		issued := t0
		for i := 0; i < burst; i++ {
			var (
				bodies [len(fsdProbe)]string
				vers   [len(fsdProbe)]uint64
				err    error
			)
			for j, p := range paths {
				if bodies[j], vers[j], err = c.get(p); err != nil {
					break
				}
			}
			pr.lats = append(pr.lats, time.Since(issued))
			for j, p := range paths {
				if err != nil {
					break
				}
				if err = checkBody(p, bodies[j], ncpu); err == nil && vers[j] < last {
					err = fmt.Errorf("GET %s: snapshot version went back from %d to %d", p, last, vers[j])
				}
				last = max(last, vers[j])
			}
			issued = time.Now()
			pr.probes++
			if err != nil {
				pr.failed++
				if len(pr.problems) < 10 {
					pr.problems = append(pr.problems, err.Error())
				}
			}
		}
	}
	return pr
}

// runFSD runs the probers against the served host while the pump
// advances the simulation.
func runFSD(rc runConfig) (*outcome, error) {
	o := &outcome{}
	r, err := setupRepeated(fsdSetups, o,
		func() (*fsdRig, error) { return startFSD(rc.seed) },
		func(r *fsdRig) { r.close() })
	if err != nil {
		return nil, err
	}
	defer r.close()
	if rc.trace {
		o.lt = &layerTrace{}
	}
	ncpu := r.b.H.Sched.NCPU()
	rng := rand.New(rand.NewPCG(rc.seed, 0xf5d))
	targets := make([]string, len(fsdProbers))
	for i := range targets {
		targets[i] = r.names[rng.IntN(len(r.names))]
	}

	runs := make([]*proberRun, len(fsdProbers))
	err = measure(o, func() {
		stopPump := r.srv.Pump(fsdPump)
		defer stopPump()
		start := time.Now()
		var wg sync.WaitGroup
		for i, p := range fsdProbers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i] = r.probe(r.conns[i], targets[i], p.every*fsdStretch, p.burst, start, rc.window, ncpu)
			}()
		}
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	var bursts, late int64
	for _, pr := range runs {
		o.ops = append(o.ops, pr.lats...)
		o.attempted += pr.probes
		o.failed += pr.failed
		for _, p := range pr.problems {
			o.fail("%s", p)
		}
		bursts += pr.bursts
		late += pr.lateBursts
	}
	if rc.trace {
		o.lt.bursts, o.lt.lateBursts = bursts, late
	}

	// With the pump stopped the snapshot holds still: every pseudo-file
	// served over HTTP must now equal its direct rendering.
	for i, name := range targets {
		for _, f := range fsdProbe {
			path := fmt.Sprintf(f, name)
			got, _, err := r.conns[i].get(path)
			if err != nil {
				o.fail("%v", err)
				continue
			}
			want, err := r.render(name, f)
			if err != nil {
				o.fail("rendering %s: %v", path, err)
			} else if got != want {
				o.fail("GET %s served %q, snapshot renders %q", path, got, want)
			}
		}
	}
	return o, nil
}
