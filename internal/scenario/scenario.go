// Package scenario implements the arvctl scripting language: a small,
// line-oriented DSL for driving a simulated host through docker-like
// scenarios (create containers, launch workloads, advance virtual time,
// inspect the adaptive resource views).
//
// Grammar (one command per line, '#' starts a comment):
//
//	host CPUS MEMORY
//	pod NAME [shares=N] [quota=CPUS] [cpuset=N] [hard=SIZE] [soft=SIZE]
//	create NAME [pod=POD] [shares=N] [quota=CPUS] [cpuset=N] [hard=SIZE]
//	            [soft=SIZE] [gamma=F]
//	exec NAME COMMAND...
//	jvm NAME WORKLOAD POLICY [xmx=SIZE] [xms=SIZE] [elastic]
//	omp NAME KERNEL STRATEGY
//	sysbench NAME THREADS CPUSECONDS
//	memhog NAME TARGET RATE
//	destroy NAME
//	advance DURATION
//	wait DURATION
//	top
//	fault seed N
//	fault events [drop=PROB] [delay=DURATION] [jitter=FRAC]
//	fault monitor [lag=DURATION] [jitter=FRAC] [miss=PROB]
//	fault degrade [budget=DURATION] [resync=DURATION]
//	fault churn NAME interval=DURATION [jitter=FRAC] [quota=MIN:MAX]
//	            [hard=SIZE:SIZE] [count=N]
//	fault kill NAME at=DURATION [restart] [delay=DURATION]
//	autoscale policy NAME [interval=DURATION] [hysteresis=FRAC]
//	                 [headroom=FRAC] [grow=FRAC] [cap=MS] [burst=CPUS]
//	autoscale manage NAME [min=CPUS] [max=CPUS] [memmin=SIZE] [memmax=SIZE]
//	autoscale status
//
// The fault family drives the deterministic fault injector
// (internal/faults) against the script's host. `fault events` drops or
// delays cgroup limit-change events before ns_monitor sees them;
// `fault monitor` postpones or skips its periodic update rounds;
// `fault degrade` arms the graceful-degradation machinery
// (bounded-staleness fallback and retry-with-backoff resync) that
// recovers from them. `fault churn` rewrites a container's cpu quota
// and/or memory limits on a schedule (ranges are MIN:MAX, values drawn
// uniformly), and `fault kill` destroys a container at a virtual-time
// offset — with `restart` it is recreated (same spec, after `delay`)
// and the script's name re-binds to the new container; its workloads
// are not relaunched. Omitting an option selects zero (fault off), so
// re-issuing `fault events` with no options clears the event faults.
// All probabilistic decisions come from the injector's own seeded RNG
// (`fault seed`, default 1): replaying a script reproduces the exact
// same fault schedule.
//
// The autoscale family drives the view-driven vertical autoscaler
// (internal/autoscaler). `autoscale policy` attaches it with one of
// static, target, shares, or banked (policy knobs ride as options:
// `headroom`/`grow` for target, `headroom` for shares, `cap`/`burst`
// for banked); `autoscale manage` puts a container under management
// with optional cpu and memory clamps; `autoscale status` prints the
// control loop's counters. The autoscaler is deterministic and RNG-free:
// replaying a script reproduces the exact same resize sequence.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"arv/internal/autoscaler"
	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/omp"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// Interp executes scenario scripts against a lazily created host.
type Interp struct {
	// Out receives the output of `top` and warnings; defaults to
	// io.Discard if nil.
	Out io.Writer

	h    *host.Host
	inj  *faults.Injector
	auto *autoscaler.Autoscaler
	ctrs map[string]*container.Container
	pods map[string]*container.Pod
}

// New returns an interpreter writing command output to out.
func New(out io.Writer) *Interp {
	return &Interp{
		Out:  out,
		ctrs: map[string]*container.Container{},
		pods: map[string]*container.Pod{},
	}
}

// Host returns the simulated host, creating the default one (20 CPUs,
// 128 GiB) if no `host` command has run yet.
func (in *Interp) Host() *host.Host {
	if in.h == nil {
		in.h = host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
	}
	return in.h
}

// Container resolves a container by name.
func (in *Interp) Container(name string) (*container.Container, error) {
	c, ok := in.ctrs[name]
	if !ok {
		return nil, fmt.Errorf("unknown container %q", name)
	}
	return c, nil
}

// Run executes a whole script, stopping at the first error, which is
// annotated with its line number.
func (in *Interp) Run(r io.Reader) error {
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		if err := in.Line(scanner.Text()); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return scanner.Err()
}

// Line executes a single script line (comments and blanks are no-ops).
func (in *Interp) Line(line string) error {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	return in.exec(fields)
}

func (in *Interp) out() io.Writer {
	if in.Out == nil {
		return io.Discard
	}
	return in.Out
}

func (in *Interp) exec(args []string) error {
	switch cmd := args[0]; cmd {
	case "host":
		return in.cmdHost(args[1:])
	case "pod":
		return in.cmdPod(args[1:])
	case "create":
		return in.cmdCreate(args[1:])
	case "exec":
		return in.cmdExec(args[1:])
	case "jvm":
		return in.cmdJVM(args[1:])
	case "omp":
		return in.cmdOMP(args[1:])
	case "sysbench":
		return in.cmdSysbench(args[1:])
	case "memhog":
		return in.cmdMemhog(args[1:])
	case "destroy":
		return in.cmdDestroy(args[1:])
	case "advance":
		return in.cmdAdvance(args[1:])
	case "wait":
		return in.cmdWait(args[1:])
	case "top":
		in.Top()
		return nil
	case "fault":
		return in.cmdFault(args[1:])
	case "autoscale":
		return in.cmdAutoscale(args[1:])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (in *Interp) cmdHost(args []string) error {
	if in.h != nil {
		return fmt.Errorf("host already created")
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: host CPUS MEMORY")
	}
	cpus, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad CPU count %q", args[0])
	}
	mem, err := ParseSize(args[1])
	if err != nil {
		return err
	}
	in.h = host.New(host.Config{CPUs: cpus, Memory: mem, Seed: 1})
	return nil
}

func (in *Interp) cmdPod(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: pod NAME [key=value ...]")
	}
	spec := container.PodSpec{Name: args[0]}
	if _, dup := in.pods[spec.Name]; dup {
		return fmt.Errorf("pod %q already exists", spec.Name)
	}
	for _, kv := range args[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad option %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "shares":
			spec.CPUShares, err = strconv.ParseInt(v, 10, 64)
		case "quota":
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			spec.CPUQuotaUS = int64(f * 100_000)
			spec.CPUPeriodUS = 100_000
		case "cpuset":
			spec.CpusetCPUs, err = strconv.Atoi(v)
		case "hard":
			spec.MemHard, err = ParseSize(v)
		case "soft":
			spec.MemSoft, err = ParseSize(v)
		default:
			return fmt.Errorf("unknown pod option %q", k)
		}
		if err != nil {
			return fmt.Errorf("option %s: %w", k, err)
		}
	}
	in.pods[spec.Name] = in.Host().Runtime.CreatePod(spec)
	return nil
}

func (in *Interp) cmdCreate(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: create NAME [pod=POD] [key=value ...]")
	}
	spec := container.Spec{Name: args[0]}
	if _, dup := in.ctrs[spec.Name]; dup {
		return fmt.Errorf("container %q already exists", spec.Name)
	}
	var pod *container.Pod
	for _, kv := range args[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad option %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "pod":
			var found bool
			pod, found = in.pods[v]
			if !found {
				err = fmt.Errorf("unknown pod %q", v)
			}
		case "shares":
			spec.CPUShares, err = strconv.ParseInt(v, 10, 64)
		case "quota":
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			spec.CPUQuotaUS = int64(f * 100_000)
			spec.CPUPeriodUS = 100_000
		case "cpuset":
			spec.CpusetCPUs, err = strconv.Atoi(v)
		case "hard":
			spec.MemHard, err = ParseSize(v)
		case "soft":
			spec.MemSoft, err = ParseSize(v)
		case "gamma":
			spec.Gamma, err = strconv.ParseFloat(v, 64)
		default:
			return fmt.Errorf("unknown option %q", k)
		}
		if err != nil {
			return fmt.Errorf("option %s: %w", k, err)
		}
	}
	if pod != nil {
		in.ctrs[spec.Name] = in.Host().Runtime.CreateInPod(pod, spec)
	} else {
		in.ctrs[spec.Name] = in.Host().Runtime.Create(spec)
	}
	return nil
}

func (in *Interp) cmdExec(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: exec NAME COMMAND")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	c.Exec(strings.Join(args[1:], " "))
	return nil
}

func (in *Interp) cmdJVM(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: jvm NAME WORKLOAD POLICY [xmx=SIZE] [xms=SIZE] [elastic]")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	w, err := workloads.JVMByName(args[1])
	if err != nil {
		return err
	}
	cfg, err := ParsePolicy(args[2])
	if err != nil {
		return err
	}
	for _, opt := range args[3:] {
		switch {
		case opt == "elastic":
			cfg.ElasticHeap = true
		case strings.HasPrefix(opt, "xmx="):
			cfg.Xmx, err = ParseSize(strings.TrimPrefix(opt, "xmx="))
		case strings.HasPrefix(opt, "xms="):
			cfg.Xms, err = ParseSize(strings.TrimPrefix(opt, "xms="))
		default:
			return fmt.Errorf("unknown jvm option %q", opt)
		}
		if err != nil {
			return err
		}
	}
	j := jvm.New(in.Host(), c, w, cfg)
	j.Start()
	return nil
}

func (in *Interp) cmdOMP(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: omp NAME KERNEL STRATEGY")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	var strategy omp.Strategy
	switch args[2] {
	case "static":
		strategy = omp.Static
	case "dynamic":
		strategy = omp.Dynamic
	case "adaptive":
		strategy = omp.Adaptive
	default:
		return fmt.Errorf("unknown strategy %q", args[2])
	}
	k, err := workloads.NPBByName(args[1])
	if err != nil {
		return err
	}
	p := omp.New(in.Host(), c, k, strategy)
	p.Start()
	return nil
}

func (in *Interp) cmdSysbench(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: sysbench NAME THREADS CPUSECONDS")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	threads, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("bad thread count %q", args[1])
	}
	work, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("bad work %q", args[2])
	}
	s := workloads.NewSysbench(in.Host(), c, threads, units.CPUSeconds(work))
	s.Start()
	return nil
}

func (in *Interp) cmdMemhog(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: memhog NAME TARGET RATE")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	target, err := ParseSize(args[1])
	if err != nil {
		return err
	}
	rate, err := ParseSize(args[2])
	if err != nil {
		return err
	}
	m := workloads.NewMemHog(in.Host(), c, target, rate, 0)
	m.Start()
	return nil
}

func (in *Interp) cmdDestroy(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: destroy NAME")
	}
	c, err := in.Container(args[0])
	if err != nil {
		return err
	}
	in.Host().Runtime.Destroy(c)
	delete(in.ctrs, args[0])
	return nil
}

func (in *Interp) cmdAdvance(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: advance DURATION")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	in.Host().Run(d)
	return nil
}

func (in *Interp) cmdWait(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: wait DURATION")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	if !in.Host().RunUntilDone(d) {
		fmt.Fprintln(in.out(), "wait: timeout with programs still running")
	}
	return nil
}

// injector lazily attaches the fault injector to the script's host; a
// zero-config injector is byte-identical to none, so attachment alone
// never perturbs a scenario.
func (in *Interp) injector() *faults.Injector {
	if in.inj == nil {
		in.inj = faults.Attach(in.Host(), faults.Config{Seed: 1})
	}
	return in.inj
}

func (in *Interp) cmdFault(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fault seed|events|monitor|degrade|churn|kill ...")
	}
	switch sub := args[0]; sub {
	case "seed":
		if len(args) != 2 {
			return fmt.Errorf("usage: fault seed N")
		}
		seed, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", args[1])
		}
		in.injector().Reseed(seed)
		return nil
	case "events":
		var drop, jitter float64
		var delay time.Duration
		for _, kv := range args[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "drop":
				drop, err = strconv.ParseFloat(v, 64)
			case "delay":
				delay, err = time.ParseDuration(v)
			case "jitter":
				jitter, err = strconv.ParseFloat(v, 64)
			default:
				return fmt.Errorf("unknown events option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		in.injector().SetEventFaults(drop, delay, jitter)
		return nil
	case "monitor":
		var lag time.Duration
		var jitter, miss float64
		for _, kv := range args[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "lag":
				lag, err = time.ParseDuration(v)
			case "jitter":
				jitter, err = strconv.ParseFloat(v, 64)
			case "miss":
				miss, err = strconv.ParseFloat(v, 64)
			default:
				return fmt.Errorf("unknown monitor option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		in.injector().SetMonitorFaults(lag, jitter, miss)
		return nil
	case "degrade":
		var budget, resync time.Duration
		for _, kv := range args[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "budget":
				budget, err = time.ParseDuration(v)
			case "resync":
				resync, err = time.ParseDuration(v)
			default:
				return fmt.Errorf("unknown degrade option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		in.Host().Monitor.SetDegradation(budget, resync)
		return nil
	case "churn":
		if len(args) < 2 {
			return fmt.Errorf("usage: fault churn NAME interval=DURATION [options]")
		}
		if _, err := in.Container(args[1]); err != nil {
			return err
		}
		rule := faults.ChurnRule{Target: args[1]}
		for _, kv := range args[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "interval":
				rule.Interval, err = time.ParseDuration(v)
			case "jitter":
				rule.Jitter, err = strconv.ParseFloat(v, 64)
			case "quota":
				lo, hi, ok := strings.Cut(v, ":")
				if !ok {
					return fmt.Errorf("quota range %q (want MIN:MAX)", v)
				}
				if rule.MinQuotaCPUs, err = strconv.ParseFloat(lo, 64); err == nil {
					rule.MaxQuotaCPUs, err = strconv.ParseFloat(hi, 64)
				}
			case "hard":
				lo, hi, ok := strings.Cut(v, ":")
				if !ok {
					return fmt.Errorf("hard range %q (want SIZE:SIZE)", v)
				}
				if rule.MinMemHard, err = ParseSize(lo); err == nil {
					rule.MaxMemHard, err = ParseSize(hi)
				}
			case "count":
				rule.Count, err = strconv.Atoi(v)
			default:
				return fmt.Errorf("unknown churn option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		if rule.Interval <= 0 {
			return fmt.Errorf("fault churn needs interval=DURATION")
		}
		if rule.MaxQuotaCPUs < rule.MinQuotaCPUs || rule.MaxMemHard < rule.MinMemHard {
			return fmt.Errorf("inverted churn range")
		}
		in.injector().StartChurn(rule)
		return nil
	case "kill":
		if len(args) < 2 {
			return fmt.Errorf("usage: fault kill NAME at=DURATION [restart] [delay=DURATION]")
		}
		name := args[1]
		if _, err := in.Container(name); err != nil {
			return err
		}
		rule := faults.KillRule{Target: name, At: -1}
		for _, opt := range args[2:] {
			if opt == "restart" {
				rule.Restart = true
				continue
			}
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("bad option %q", opt)
			}
			var err error
			switch k {
			case "at":
				rule.At, err = time.ParseDuration(v)
			case "delay":
				rule.RestartDelay, err = time.ParseDuration(v)
			default:
				return fmt.Errorf("unknown kill option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		if rule.At < 0 {
			return fmt.Errorf("fault kill needs at=DURATION")
		}
		if rule.Restart {
			// Re-bind the script name to the recreated container so
			// later commands address the survivor, not the corpse.
			rule.OnRestart = func(nc *container.Container) { in.ctrs[name] = nc }
		}
		inj := in.injector()
		inj.ScheduleKill(rule)
		return nil
	default:
		return fmt.Errorf("unknown fault subcommand %q", sub)
	}
}

func (in *Interp) cmdAutoscale(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: autoscale policy|manage|status ...")
	}
	switch sub := args[0]; sub {
	case "policy":
		if in.auto != nil {
			return fmt.Errorf("autoscale policy already set (%s)", in.auto.Policy().Name())
		}
		if len(args) < 2 {
			return fmt.Errorf("usage: autoscale policy static|target|shares|banked [options]")
		}
		name := args[1]
		var (
			interval time.Duration
			hyst     float64
			headroom float64
			grow     float64
			capMS    int64
			burst    float64
		)
		for _, kv := range args[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "interval":
				interval, err = time.ParseDuration(v)
			case "hysteresis":
				hyst, err = strconv.ParseFloat(v, 64)
			case "headroom":
				headroom, err = strconv.ParseFloat(v, 64)
			case "grow":
				grow, err = strconv.ParseFloat(v, 64)
			case "cap":
				capMS, err = strconv.ParseInt(v, 10, 64)
			case "burst":
				burst, err = strconv.ParseFloat(v, 64)
			default:
				return fmt.Errorf("unknown policy option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		var pol autoscaler.Policy
		switch name {
		case "static":
			pol = autoscaler.Static{}
		case "target":
			pol = autoscaler.Target{Headroom: headroom, Grow: grow}
		case "shares":
			pol = autoscaler.SharesOnly{Headroom: headroom}
		case "banked":
			pol = autoscaler.Banked{BankCapMS: capMS, BurstCPUs: burst}
		default:
			return fmt.Errorf("unknown autoscale policy %q", name)
		}
		in.auto = autoscaler.Attach(in.Host(), autoscaler.Config{
			Interval:   interval,
			Hysteresis: hyst,
			Policy:     pol,
		})
		return nil
	case "manage":
		if in.auto == nil {
			return fmt.Errorf("autoscale manage before autoscale policy")
		}
		if len(args) < 2 {
			return fmt.Errorf("usage: autoscale manage NAME [min=CPUS] [max=CPUS] [memmin=SIZE] [memmax=SIZE]")
		}
		if _, err := in.Container(args[1]); err != nil {
			return err
		}
		spec := autoscaler.Spec{Name: args[1]}
		for _, kv := range args[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "min":
				spec.MinCPUs, err = strconv.ParseFloat(v, 64)
			case "max":
				spec.MaxCPUs, err = strconv.ParseFloat(v, 64)
			case "memmin":
				spec.MinMem, err = ParseSize(v)
			case "memmax":
				spec.MaxMem, err = ParseSize(v)
			default:
				return fmt.Errorf("unknown manage option %q", k)
			}
			if err != nil {
				return fmt.Errorf("option %s: %w", k, err)
			}
		}
		if spec.MaxCPUs != 0 && spec.MaxCPUs < spec.MinCPUs {
			return fmt.Errorf("inverted cpu range %v:%v", spec.MinCPUs, spec.MaxCPUs)
		}
		if spec.MaxMem != 0 && spec.MaxMem < spec.MinMem {
			return fmt.Errorf("inverted memory range %v:%v", spec.MinMem, spec.MaxMem)
		}
		in.auto.Manage(spec)
		return nil
	case "status":
		if in.auto == nil {
			fmt.Fprintln(in.out(), "autoscaler: not attached")
			return nil
		}
		tr := in.Host().Trace
		fmt.Fprintf(in.out(),
			"autoscaler: policy=%s rounds=%d conservative=%d held=%d resizes=%d clamped=%d bank_spent_ms=%d\n",
			in.auto.Policy().Name(), in.auto.Rounds(), in.auto.ConservativeRounds(), in.auto.HeldRounds(),
			tr.Count(telemetry.CtrAutoscaleResizes), tr.Count(telemetry.CtrAutoscaleClamped),
			tr.Count(telemetry.CtrAutoscaleBankSpentMS))
		return nil
	default:
		return fmt.Errorf("unknown autoscale subcommand %q", sub)
	}
}

// Top prints the per-container resource view, in name order.
func (in *Interp) Top() {
	snap := in.Host().Snapshot()
	if _, err := snap.WriteTo(in.out()); err != nil {
		fmt.Fprintln(in.out(), "top:", err)
	}
}

// ParsePolicy maps a policy name to a JVM config.
func ParsePolicy(name string) (jvm.Config, error) {
	switch name {
	case "vanilla":
		return jvm.Config{Policy: jvm.Vanilla8}, nil
	case "dynamic":
		return jvm.Config{Policy: jvm.Dynamic8}, nil
	case "jvm9":
		return jvm.Config{Policy: jvm.JDK9}, nil
	case "jvm10":
		return jvm.Config{Policy: jvm.JDK10}, nil
	case "adaptive":
		return jvm.Config{Policy: jvm.Adaptive}, nil
	default:
		return jvm.Config{}, fmt.Errorf("unknown policy %q", name)
	}
}

// ParseSize parses sizes like "512MiB", "4G", "100MB" (decimal suffixes
// are treated as binary), or plain byte counts.
func ParseSize(s string) (units.Bytes, error) {
	mult := units.Bytes(1)
	for _, suf := range []struct {
		name string
		m    units.Bytes
	}{
		{"GiB", units.GiB}, {"GB", units.GiB}, {"G", units.GiB},
		{"MiB", units.MiB}, {"MB", units.MiB}, {"M", units.MiB},
		{"KiB", units.KiB}, {"KB", units.KiB}, {"K", units.KiB},
	} {
		if strings.HasSuffix(s, suf.name) {
			mult = suf.m
			s = strings.TrimSuffix(s, suf.name)
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	bytes := v * float64(mult)
	if bytes >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return units.Bytes(bytes), nil
}
