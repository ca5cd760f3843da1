package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Per-layer accounting for traced runs (--trace 1).
//
// A traced run is the same workload with a CPU profile taken over the
// measured window. Each profile sample is charged to the innermost
// frame on its stack that belongs to a layer (the function and package
// tables below), so a layer's share is its self time, including the
// runtime work (allocation, write barriers) it causes; samples with no
// layer frame are runtime time (GC workers, the scheduler). The
// simulator runs unmodified.
//
// What each layer metric should move: cfs_cpu_pct on binding (the
// scheduler's tick protocol); sysns_cpu_pct and cgroups_cpu_pct on
// scale (the view-update round and cgroup event delivery under churn);
// kernel, timers and programs on suite (the kernel loop and the
// simulated applications); publish_cpu_pct, fsd_cpu_pct, http_cpu_pct
// and late_bursts_pct on fsd (snapshot publication and the serving
// path); allocs_per_op and gc_pause_pct everywhere.

// benchFuncs are the benchmark's own work inside the window: its
// correctness checks and its HTTP client. A sample with one of these
// anywhere on its stack is charged to bench, whatever it calls.
var benchFuncs = []string{"main.check", "main.(*fsdConn)."}

// layerOfFunc charges a function to a layer ahead of its package's
// layer.
var layerOfFunc = map[string]string{
	"arv/internal/sysns.(*Monitor).Publish": "publish",
}

// layerOfPackage maps a package to the layer its frames are charged to.
// Packages not listed are passed over (the charge goes to the next
// frame out), except other arv packages, which are the simulated
// programs and the experiment harness.
var layerOfPackage = map[string]string{
	"arv/internal/cfs":       "cfs",
	"arv/internal/memctl":    "memctl",
	"arv/internal/sysns":     "sysns",
	"arv/internal/cgroups":   "cgroups",
	"arv/internal/faults":    "faults",
	"arv/internal/sim":       "timers",
	"arv/internal/host":      "kernel",
	"arv/internal/fsd":       "fsd",
	"arv/internal/sysfs":     "fsd",
	"arv/internal/telemetry": "",
	"arv/internal/units":     "",
	"net/http":               "http",
	"net":                    "http",
	"internal/poll":          "http",
}

// layers lists every layer in report order.
var layers = []string{"cfs", "memctl", "sysns", "publish", "cgroups", "faults", "timers", "kernel",
	"programs", "fsd", "http", "runtime", "bench"}

// layerTrace accumulates one traced run.
type layerTrace struct {
	profile    bytes.Buffer // CPU profile of the measured window
	bursts     int64        // fsd probe bursts run
	lateBursts int64        // fsd bursts whose prober woke late
}

// perLayerMetrics renders a traced run's layer accounting.
func perLayerMetrics(o *outcome) (map[string]metric, error) {
	lt := o.lt
	cpu, err := cpuByLayer(lt.profile.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	pct := func(part, whole int64) metric {
		if whole == 0 {
			return metric{0, "%"}
		}
		return metric{100 * float64(part) / float64(whole), "%"}
	}
	m := map[string]metric{
		"traced_p50_ms":   {ms(quantile(o.ops, 0.50)), "ms"},
		"traced_p90_ms":   {ms(quantile(o.ops, 0.90)), "ms"},
		"ops":             {float64(len(o.ops)), "count"},
		"cpu_busy_pct":    pct(total, int64(o.wall)),
		"gc_pause_pct":    pct(int64(o.gcPause), int64(o.wall)),
		"late_bursts_pct": pct(lt.lateBursts, lt.bursts),
		"allocs_per_op":   {float64(o.mallocs) / float64(len(o.ops)), "count"},
	}
	for _, l := range layers {
		m[l+"_cpu_pct"] = pct(cpu[l], total)
	}
	return m, nil
}

// layerOf charges one sample, given its frames innermost first.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, p := range benchFuncs {
			if strings.HasPrefix(f, p) {
				return "bench"
			}
		}
	}
	for _, f := range frames {
		if l, ok := layerOfFunc[f]; ok {
			return l
		}
		pkg := packageOf(f)
		if l, ok := layerOfPackage[pkg]; ok {
			if l != "" {
				return l
			}
			continue
		}
		if strings.HasPrefix(pkg, "arv/") {
			return "programs"
		}
	}
	return "runtime"
}

// packageOf returns the import path of a function's package, given its
// symbol name (arv/internal/cfs.(*Scheduler).Tick → arv/internal/cfs).
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuByLayer decodes a gzipped pprof CPU profile (profile.proto) and
// sums its sampled CPU nanoseconds per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location → function ids, innermost first
		funcName = map[uint64]uint64{}   // function → string table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		var err error
		switch num {
		case 2: // Sample
			var s sample
			err = eachField(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err = eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err = eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	var frames []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		// The last value is the sample's CPU time in nanoseconds.
		out[layerOf(frames)] += int64(s.values[len(s.values)-1])
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField calls fn for every field of one protobuf message: v holds
// a varint field's value, b a length-delimited field's bytes (nil for
// varints). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (b
// non-nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
