package arv_test

import (
	"os"
	"path/filepath"
	"testing"

	"arv/internal/autoscaler"
	"arv/internal/experiments"
	"arv/internal/host"
)

// TestInertAutoscalerIsByteIdentical is the zero-config guarantee: an
// autoscaler attached with the Static policy (or no policy at all) must
// be indistinguishable from no autoscaler. The host.OnNew hook attaches
// one to every host any experiment builds — including cluster nodes —
// and the whole golden sweep must still render byte-identical output.
//
// This is a sharp invariant, not a smoke test: an inert autoscaler that
// read even one snapshot would flip the monitor's observed bit, enable
// periodic publication, and move the CtrSnapshotsPublished counter,
// which shows up as a golden diff somewhere in the 21 experiments.
func TestInertAutoscalerIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full golden sweep twice; skipped in -short")
	}
	for _, cfg := range []struct {
		name string
		cfg  autoscaler.Config
	}{
		// Specs ride along to prove managed-but-inert stays inert too.
		{"static-policy", autoscaler.Config{Policy: autoscaler.Static{}, Specs: []autoscaler.Spec{{Name: "svc"}}}},
		{"no-policy", autoscaler.Config{}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			host.OnNew = func(h *host.Host) { autoscaler.Attach(h, cfg.cfg) }
			defer func() { host.OnNew = nil }()
			for _, e := range experiments.All() {
				got := e.Run(experiments.Options{Scale: 0.25, Workers: 4}).String()
				want, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".golden"))
				if err != nil {
					t.Fatalf("missing golden: %v", err)
				}
				if got != string(want) {
					t.Errorf("%s: output diverged with an inert autoscaler attached to every host", e.ID)
				}
			}
		})
	}
}
