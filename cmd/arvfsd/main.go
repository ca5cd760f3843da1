// Command arvfsd serves a simulated host's virtual sysfs over HTTP — the
// library's answer to the userspace-filesystem deployment of LXCFS,
// except backed by *adaptive* resource views. Point any tooling that
// reads /proc/meminfo or /sys/devices/system/cpu/online at
// /containers/{name}/... and it sees the container's effective
// resources, updating live as co-location changes.
//
// Usage:
//
//	arvfsd [-addr :8070] [-pump 50ms] [-scenario file.arv]
//
// Flags:
//
//	-addr      listen address (default :8070)
//	-pump      real-time pump interval: every -pump of wall clock the
//	           simulation advances by the same span (default 50ms)
//	-scenario  scenario file to set up the host (default: canned demo)
//
// Without -scenario, a canned multi-tenant demo runs: one quota-limited
// web container plus batch containers that come and go. The simulation
// advances in near real time while serving.
//
// On SIGINT or SIGTERM the daemon shuts down gracefully: the listener
// stops accepting, in-flight reads drain (they resolve from immutable
// snapshots, so draining is bounded by response writing, not by the
// simulation), and the pump stops last.
//
// Try:
//
//	curl localhost:8070/containers
//	curl localhost:8070/containers/web/proc/meminfo
//	curl localhost:8070/containers/web/sys/devices/system/cpu/online
//	curl localhost:8070/host/proc/loadavg
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"arv/internal/container"
	"arv/internal/fsd"
	"arv/internal/host"
	"arv/internal/scenario"
	"arv/internal/sim"
	"arv/internal/units"
	"arv/internal/workloads"
)

func main() {
	var (
		addr = flag.String("addr", ":8070", "listen address")
		pump = flag.Duration("pump", 50*time.Millisecond, "real-time pump interval (simulation advances this much per wall-clock interval)")
		scn  = flag.String("scenario", "", "scenario file to set up the host (default: canned demo)")
	)
	flag.Parse()
	if *pump <= 0 {
		fmt.Fprintln(os.Stderr, "arvfsd: -pump must be positive")
		os.Exit(2)
	}

	var h *host.Host
	if *scn != "" {
		f, err := os.Open(*scn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arvfsd:", err)
			os.Exit(1)
		}
		interp := scenario.New(os.Stdout)
		err = interp.Run(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "arvfsd:", err)
			os.Exit(1)
		}
		h = interp.Host()
	} else {
		h = demoHost()
	}

	srv := fsd.NewServer(h)
	stop := srv.Pump(*pump)

	httpSrv := newHTTPServer(*addr, srv.Handler())

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain
	// in-flight reads, then stop the pump. Reads resolve from immutable
	// snapshots, so draining never waits on a simulation step.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "arvfsd: shutdown:", err)
		}
	}()

	fmt.Printf("arvfsd: serving virtual sysfs on %s (try /containers; pump %v)\n", *addr, *pump)
	err := httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		stop()
		fmt.Fprintln(os.Stderr, "arvfsd:", err)
		os.Exit(1)
	}
	<-shutdownDone // drain in-flight reads
	stop()         // then halt the simulation pump
	fmt.Printf("arvfsd: drained after %d reads, stopping\n", srv.Reads())
}

// Every route is a short GET, so a client gets a few seconds to send its
// request and a few KiB of headers; a slow or oversized request is cut
// off rather than left holding a connection.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer returns the daemon's HTTP server with its request
// limits set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// demoHost builds the canned scenario: a quota-limited web container
// plus batch containers whose jobs start and finish on a cycle, so the
// served views visibly adapt.
func demoHost() *host.Host {
	h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
	web := h.Runtime.Create(container.Spec{
		Name:       "web",
		CPUQuotaUS: 1_000_000, CPUPeriodUS: 100_000,
		MemHard: 8 * units.GiB, MemSoft: 4 * units.GiB,
	})
	web.Exec("httpd")
	workloads.NewSysbench(h, web, 8, 1e12).Start() // steady demand

	batch := make([]*container.Container, 4)
	for i := range batch {
		batch[i] = h.Runtime.Create(container.Spec{Name: fmt.Sprintf("batch%d", i)})
		batch[i].Exec("worker")
	}
	// Every 20 virtual seconds, launch a 10-second batch wave: the web
	// container's effective CPU oscillates between its fair share and
	// its quota.
	launch := func(sim.Time) {
		for _, c := range batch {
			workloads.NewSysbench(h, c, 5, 50).Start()
		}
	}
	launch(0)
	h.Clock.Every(20*time.Second, launch)
	return h
}
