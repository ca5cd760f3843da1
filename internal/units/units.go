// Package units provides the size, time, and ratio types shared by the
// simulation substrate.
//
// All simulated time is expressed as time.Duration measured from the start
// of a simulation (see internal/sim). Memory sizes are Bytes. CPU capacity
// is expressed either as a discrete CPU count (int) or, inside the fluid
// scheduler, as a rate in units of "CPUs" (float64, where 1.0 means the
// full capacity of one core).
package units

import (
	"fmt"
	"math"
)

// Bytes is a memory size in bytes.
type Bytes int64

// Common memory sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// PageSize is the simulated page size (4 KiB, as on x86-64 Linux).
const PageSize Bytes = 4 * KiB

// Pages converts b to a page count, rounding up.
func (b Bytes) Pages() int64 {
	if b <= 0 {
		return 0
	}
	return int64((b + PageSize - 1) / PageSize)
}

// String renders b using binary units with two significant decimals,
// e.g. "1.50GiB".
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg = "-"
		if v == math.MinInt64 {
			v = math.MaxInt64 // off by one byte; avoids negation overflow
		} else {
			v = -v
		}
	}
	switch {
	case v >= TiB:
		return fmt.Sprintf("%s%.2fTiB", neg, float64(v)/float64(TiB))
	case v >= GiB:
		return fmt.Sprintf("%s%.2fGiB", neg, float64(v)/float64(GiB))
	case v >= MiB:
		return fmt.Sprintf("%s%.2fMiB", neg, float64(v)/float64(MiB))
	case v >= KiB:
		return fmt.Sprintf("%s%.2fKiB", neg, float64(v)/float64(KiB))
	default:
		return fmt.Sprintf("%s%dB", neg, int64(v))
	}
}

// GB returns the size in (binary) gigabytes as a float.
func (b Bytes) GB() float64 { return float64(b) / float64(GiB) }

// CPUSeconds is an amount of CPU time: one CPU running for one second is
// 1.0. It is the unit of both scheduler usage accounting and workload
// "work".
type CPUSeconds float64

// Clamp returns v limited to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampBytes returns v limited to the inclusive range [lo, hi].
func ClampBytes(v, lo, hi Bytes) Bytes {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt returns v limited to the inclusive range [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MinBytes returns the smaller of a and b.
func MinBytes(a, b Bytes) Bytes {
	if a < b {
		return a
	}
	return b
}

// MaxBytes returns the larger of a and b.
func MaxBytes(a, b Bytes) Bytes {
	if a > b {
		return a
	}
	return b
}
