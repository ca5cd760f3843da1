package units

import (
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1.00KiB"},
		{1536, "1.50KiB"},
		{MiB, "1.00MiB"},
		{GiB, "1.00GiB"},
		{3 * GiB / 2, "1.50GiB"},
		{TiB, "1.00TiB"},
		{-2 * MiB, "-2.00MiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestPagesRoundsUp(t *testing.T) {
	cases := []struct {
		in   Bytes
		want int64
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{PageSize, 1},
		{PageSize + 1, 2},
		{10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := c.in.Pages(); got != c.want {
			t.Errorf("Bytes(%d).Pages() = %d, want %d", int64(c.in), got, c.want)
		}
	}
}

func TestPagesRoundTripProperty(t *testing.T) {
	// b.Pages() pages hold b for non-negative sizes, within one page.
	f := func(n uint32) bool {
		b := Bytes(n)
		back := Bytes(b.Pages()) * PageSize
		return back >= b && back-b < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampFamilies(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := ClampBytes(5, 1, 3); got != 3 {
		t.Errorf("ClampBytes high = %v", got)
	}
	if got := ClampInt(2, 1, 3); got != 2 {
		t.Errorf("ClampInt mid = %v", got)
	}
	if got := MinBytes(2, 3); got != 2 {
		t.Errorf("MinBytes = %v", got)
	}
	if got := MaxBytes(2, 3); got != 3 {
		t.Errorf("MaxBytes = %v", got)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b int16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := ClampInt(int(v), lo, hi)
		return got >= lo && got <= hi && (got == int(v) || got == lo || got == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
