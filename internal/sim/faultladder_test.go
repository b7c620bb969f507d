package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/obs"
	"heteromem/internal/workload"
)

// ladderFault is a fault campaign that climbs the whole escalation ladder
// of internal/memctrl in one run: a retried copy leg, a step completion
// redone three times and then rolled back cleanly, a burst of device faults
// that retires the on-package frames it hits twice, and finally a long copy
// burst that exhausts a leg's retries, rolls its swap back and keeps
// failing the undo legs until the rollback is abandoned into degraded mode.
// Ordinals are per channel and fit the copy traffic of both one and two
// channels.
func ladderFault() fault.Config {
	return fault.Config{
		Schedule:    "copy@5, bulk@2x4, device@200x10, copy@400x300",
		RetireAfter: 2,
	}
}

// ladderConfig is the fault-ladder run of one design on the given channel
// count. 64 KiB macro pages keep each swap short enough that a 30k-record
// run completes dozens of them, so every rung lands inside the run.
func ladderConfig(channels int, design core.Design) Config {
	cfg := shardedConfig(channels, design, false)
	cfg.Fault = ladderFault()
	cfg.Geometry.MacroPageSize = 64 * addr.KiB
	cfg.MaxRecords = 30_000
	return cfg
}

// observe turns on every collector: Metrics, events, spans and the epoch
// series.
func observe(cfg Config) Config {
	cfg.Metrics = true
	cfg.EventTrace = 64
	cfg.SpanTrace = 128
	cfg.EpochSeries = 16
	return cfg
}

// ladderRungs counts how often each rung of the fault ladder fired, from an
// event trace that dropped nothing.
type ladderRungs struct {
	copyRetries, bulkRedos, rollbacks, abandoned, retirements uint64
}

func countRungs(events []obs.Event) ladderRungs {
	var r ladderRungs
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvFaultRetry:
			switch fault.Point(ev.A) {
			case fault.PointCopy:
				r.copyRetries++
			case fault.PointBulk:
				r.bulkRedos++
			}
		case obs.EvRollbackDone:
			if ev.B == 0 {
				r.rollbacks++
			} else {
				r.abandoned++
			}
		case obs.EvRetire:
			r.retirements++
		}
	}
	return r
}

// TestFaultLadderByteIdentical pins the fault-response paths the other
// goldens never reach: for N, N-1 and Live on channels 1 and 2, the
// fault-ladder campaign must reproduce the committed canonical-JSON goldens
// byte-for-byte, and a second, fully traced run of the same configuration
// must show every rung of the ladder firing, so the golden cannot quietly
// stop covering one. Regenerate with -update only for a real behavior
// change, with justification in the change description.
func TestFaultLadderByteIdentical(t *testing.T) {
	for _, channels := range []int{1, 2} {
		for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
			name := fmt.Sprintf("c%d/%v", channels, design)
			t.Run(name, func(t *testing.T) {
				gen, err := workload.NewMemory("pgbench", 1)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(gen, observe(ladderConfig(channels, design)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Faults == nil || !res.Faults.DegradedMode {
					t.Errorf("the run never entered degraded mode: %+v", res.Faults)
				}

				traced := observe(ladderConfig(channels, design))
				traced.EventTrace = 1 << 18
				gen, err = workload.NewMemory("pgbench", 1)
				if err != nil {
					t.Fatal(err)
				}
				tres, err := Run(gen, traced)
				if err != nil {
					t.Fatal(err)
				}
				if tres.EventsDropped != 0 {
					t.Fatalf("event trace dropped %d events; the rung count needs all of them", tres.EventsDropped)
				}
				r := countRungs(tres.Events)
				if r.copyRetries == 0 || r.bulkRedos == 0 || r.rollbacks == 0 || r.abandoned == 0 || r.retirements == 0 {
					t.Errorf("fault ladder misses a rung: %+v", r)
				}

				got := canonical(t, res)
				file := fmt.Sprintf("faultladder_c%d_%s.json", channels, strings.ReplaceAll(design.String(), "-", ""))
				path := filepath.Join("testdata", "perf", file)
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
					t.Fatalf("fault-ladder result diverged from golden %s:\n got %s\nwant %s", path, got, want)
				}
			})
		}
	}
}
