package scenario

import (
	"strings"
	"testing"
)

// FuzzLine feeds arbitrary script lines to the interpreter: it must
// return errors, never panic, for any input.
func FuzzLine(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment",
		"host 8 32GiB",
		"create a quota=2 hard=1GiB",
		"pod p shares=2048",
		"create a pod=p",
		"exec a java -jar app.jar",
		"jvm a h2 adaptive xmx=1GiB elastic",
		"omp a cg dynamic",
		"sysbench a 4 10",
		"memhog a 1GiB 1GiB",
		"advance 100ms",
		"wait 1s",
		"top",
		"destroy a",
		"fault seed 7",
		"fault events drop=0.5 delay=10ms jitter=0.2",
		"fault monitor lag=20ms miss=0.1",
		"fault degrade budget=50ms resync=100ms",
		"fault churn seed interval=100ms quota=1:2 count=3",
		"fault kill seed at=100ms restart delay=50ms",
		"fault churn seed interval=-1s",
		"create \x00weird",
		"host -1 0GiB",
		"jvm nope nope nope nope=nope",
		strings.Repeat("create x", 100),
		"autoscale policy target interval=100ms",
		"autoscale status",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		in := New(nil)
		// Errors are fine; panics are not.
		_ = in.Line("host 4 1GiB")
		_ = in.Line("create seed")
		_ = in.Line("exec seed app")
		_ = in.Line(line)
	})
}

// FuzzParseSize: any input either parses to a non-negative size or
// errors; round-tripping suffix math never panics.
func FuzzParseSize(f *testing.F) {
	for _, seed := range []string{"1", "1KiB", "2.5GiB", "0", "-3", "xKiB", "9999999999999G", "1e9MB"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseSize(s)
		if err == nil && v < 0 {
			t.Fatalf("ParseSize(%q) = negative %v without error", s, v)
		}
	})
}
