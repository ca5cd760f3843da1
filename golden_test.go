package arv_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"arv/internal/experiments"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden from the current code instead of comparing")

var goldenWorkers = flag.Int("golden-workers", 0,
	"trial-level worker count for the golden sweep (0 = GOMAXPROCS, 1 = sequential); "+
		"the goldens must match at every setting")

// TestExperimentsMatchGolden locks every registered experiment's
// rendered output to the checked-in goldens, captured from the dense
// fixed-tick kernel: one float or one tick of divergence anywhere in
// the scheduler, memory controller, or namespace algorithms changes
// the rendered tables.
//
// By default the trials fan out across GOMAXPROCS, the library default;
// -golden-workers N pins another width (1 = sequential). Every
// experiment must render the same bytes no matter how many goroutines
// its trials are spread across, which proves trial-level parallelism is
// unobservable.
//
// Regenerate (after an intentional model change) with:
//
//	go test -run TestExperimentsMatchGolden -update-golden .
func TestExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs every experiment; skipped in -short")
	}
	dir := filepath.Join("testdata", "golden")
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := e.Run(experiments.Options{Scale: 0.25, Workers: *goldenWorkers}).String()
			path := filepath.Join(dir, e.ID+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("output diverged from golden %s\n--- golden ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
		})
	}
}
