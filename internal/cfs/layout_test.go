package cfs

import (
	"testing"
	"unsafe"
)

// TestGroupHotHeader pins the hot header of Group: what a limit write and
// ns_monitor's record read lies in the struct's first 64 bytes, between
// Shares (first) and CpusetN (last), the two fields faults' churn Warm
// loads to bring in every line the header spans. A field inserted at the
// front fails here instead of quietly spreading the header over another
// cache line.
func TestGroupHotHeader(t *testing.T) {
	var g Group
	fields := []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"Shares", unsafe.Offsetof(g.Shares), unsafe.Sizeof(g.Shares)},
		{"QuotaUS", unsafe.Offsetof(g.QuotaUS), unsafe.Sizeof(g.QuotaUS)},
		{"PeriodUS", unsafe.Offsetof(g.PeriodUS), unsafe.Sizeof(g.PeriodUS)},
		{"schedIdx", unsafe.Offsetof(g.schedIdx), unsafe.Sizeof(g.schedIdx)},
		{"removed", unsafe.Offsetof(g.removed), unsafe.Sizeof(g.removed)},
		{"CpusetN", unsafe.Offsetof(g.CpusetN), unsafe.Sizeof(g.CpusetN)},
	}
	first, last := unsafe.Offsetof(g.Shares), unsafe.Offsetof(g.CpusetN)
	for _, f := range fields {
		if end := f.off + f.size; end > 64 {
			t.Errorf("%s ends at byte %d, past the first 64", f.name, end)
		}
		if f.off < first || f.off > last {
			t.Errorf("%s at byte %d lies outside Shares..CpusetN (%d..%d)", f.name, f.off, first, last)
		}
	}
	if first != 0 {
		t.Errorf("Shares at byte %d, want 0: the header opens the struct", first)
	}
}
