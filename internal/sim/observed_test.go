package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/workload"
)

// TestObservedRunByteIdentical pins the instrumented run path the other
// goldens leave unobserved: with every collector on (Metrics, events,
// spans, the epoch series, the power meter) and faults injected, channels 1
// and 2 must reproduce the committed canonical-JSON goldens byte-for-byte.
// The one-channel run also collects the convergence window series.
// Regenerate with -update only for a real behavior change, with
// justification in the change description.
func TestObservedRunByteIdentical(t *testing.T) {
	for _, channels := range []int{1, 2} {
		t.Run(fmt.Sprintf("c%d", channels), func(t *testing.T) {
			cfg := shardedConfig(channels, core.DesignLive, true)
			cfg.Metrics = true
			cfg.EventTrace = 64
			cfg.SpanTrace = 128
			cfg.EpochSeries = 16
			cfg.MeterPower = true
			if channels == 1 {
				cfg.WindowRecords = 1_000
			}
			gen, err := workload.NewMemory("pgbench", 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(gen, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := canonical(t, res)

			path := filepath.Join("testdata", "perf", fmt.Sprintf("observed_c%d.json", channels))
			if *updatePerfGoldens {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (generate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("observed result diverged from golden %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
