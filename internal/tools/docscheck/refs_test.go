package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckDocRefsFlagsMissingIdentifiers runs the rule over a one-package
// module whose document names two deleted identifiers among resolvable
// ones, standard-library names, a telemetry counter and a file name.
func TestCheckDocRefsFlagsMissingIdentifiers(t *testing.T) {
	root := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("mon/mon.go", `// Package mon is a fixture.
package mon

// Options is a fixture.
type Options struct{ Step int }

// Monitor is a fixture.
type Monitor struct {
	Options
	byID []int
}

// Flush is a fixture.
func (m *Monitor) Flush() {}

// New is a fixture.
func New() *Monitor { return nil }
`)
	write("mon/export_test.go", `package mon

func UseReference(m *Monitor) {}
`)
	write("DESIGN.md", "Resolves: `mon.Options.Step`, `mon.Monitor.byID`, `mon.Monitor.Options`,\n"+
		"`mon.(*Monitor).Flush`, `mon.New()`, `mon.UseReference`.\n"+
		"Skipped: `atomic.Pointer`, `testing.B`, `mon.bounds_flushes`, `mon.go`, `internal/mon.Gone`.\n"+
		"Deleted: `mon.Options.Batched` and `mon.(*Monitor).Gone`.\n")

	got := checkDocRefs(root, []string{"DESIGN.md"})
	design := filepath.Join(root, "DESIGN.md")
	want := []string{
		design + ":4: `mon.Options.Batched` names no declaration in the module",
		design + ":4: `mon.(*Monitor).Gone` names no declaration in the module",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkDocRefs =\n%q\nwant\n%q", got, want)
	}
}
