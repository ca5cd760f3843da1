package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"arv/internal/experiments"
)

const (
	// suiteScale is the workload scale the goldens are rendered at.
	suiteScale = 0.25
	// suiteSetups is how many cold passes a run times, each in a fresh
	// process.
	suiteSetups = 5
)

// loadGoldens reads the golden rendering of every experiment.
func loadGoldens(entries []experiments.Entry) (map[string]string, error) {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".golden"))
		if err != nil {
			return nil, fmt.Errorf("reading goldens (run from the repository root): %w", err)
		}
		out[e.ID] = string(b)
	}
	return out, nil
}

// suitePasser returns a function that runs one pass over the paper's
// experiments, sequentially and in an order drawn from the seed,
// checking every rendering against its golden into o, and returns the
// pass's wall time. The goldens are fixed-seed outputs, so they must
// hold in any order.
func suitePasser(seed uint64, o *outcome) (func() time.Duration, error) {
	entries := experiments.All()
	if len(entries) == 0 {
		return nil, fmt.Errorf("no experiments registered")
	}
	goldens, err := loadGoldens(entries)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	return func() time.Duration {
		var elapsed time.Duration
		for _, i := range rng.Perm(len(entries)) {
			e := entries[i]
			start := time.Now()
			got := e.Run(experiments.Options{Scale: suiteScale}).String()
			elapsed += time.Since(start)
			o.attempted++
			if got != goldens[e.ID] {
				o.failed++
				o.fail("%s: output differs from testdata/golden/%s.golden", e.ID, e.ID)
			}
		}
		return elapsed
	}, nil
}

// coldPass runs one checked pass in this process, as a set-up of the
// suite workload, and reports whether every rendering matched.
func coldPass(seed uint64) error {
	o := &outcome{}
	pass, err := suitePasser(seed, o)
	if err != nil {
		return err
	}
	pass()
	if len(o.problems) > 0 {
		return fmt.Errorf("%s", strings.Join(o.problems, "; "))
	}
	return nil
}

// timeColdPass times one cold pass in a child process.
func timeColdPass(seed uint64) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", "suite", "--cold-pass", "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	return time.Since(start), err
}

// runSuite measures passes over the paper's experiments. Its set-up is
// a cold pass: the first pass in a process pays one-time costs (process
// start, reading the goldens, lazily built tables, heap growth) that
// later passes do not. A process pays them once, so each set-up runs in
// a child process of its own.
func runSuite(rc runConfig) (*outcome, error) {
	o := &outcome{}
	for i := uint64(0); i < suiteSetups; i++ {
		d, err := timeColdPass(rc.seed + i)
		if err != nil {
			o.fail("cold pass with seed %d: %v", rc.seed+i, err)
		}
		o.setups = append(o.setups, d)
	}
	pass, err := suitePasser(rc.seed, o)
	if err != nil {
		return nil, err
	}
	pass() // warm-up, checked but not timed
	if rc.trace {
		o.lt = &layerTrace{}
	}
	err = measure(o, func() {
		repeatFor(rc.window, func() { o.ops = append(o.ops, pass()) })
	})
	return o, err
}
