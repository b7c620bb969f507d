package heteromem

import (
	"testing"

	"heteromem/internal/config"
	"heteromem/internal/core"
	"heteromem/internal/dsweep"
	"heteromem/internal/memctrl"
	"heteromem/internal/scheme"
)

func TestDefaultsBuild(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("SPEC2006", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 30000 || res.MeanDRAMLatency <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestMigrationConfig(t *testing.T) {
	sys, err := New(Config{
		MacroPageSize: 64 * KiB,
		Migration:     Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000},
		Warmup:        20000,
		MeterPower:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunWorkload("SPEC2006", 1, 120000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Migration.SwapsCompleted == 0 {
		t.Fatal("no swaps under migration config")
	}
	if res.NormalizedPower <= 0 {
		t.Fatal("power not metered")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MacroPageSize: 3 * MiB}); err == nil {
		t.Fatal("invalid page size accepted")
	}
	if _, err := New(Config{Migration: Migration{Enabled: true}}); err == nil {
		t.Fatal("zero swap interval accepted")
	}
	if _, err := New(Config{TotalCapacity: 1 * GiB, OnPackageCapacity: 1 * GiB}); err == nil {
		t.Fatal("on-package == total accepted")
	}
}

// TestConfigRulesRejectedEverywhere: the capacity-scheme and swap-interval
// rules live in memctrl.Config.Validate, and the facade and the sweep cells
// reach them through it rather than restating them.
func TestConfigRulesRejectedEverywhere(t *testing.T) {
	base := memctrl.Config{
		Geometry:  config.TraceGeometry(),
		Latencies: config.TableIILatencies(),
		OffTiming: config.OffPackageTiming(),
		OnTiming:  config.OnPackageTiming(),
	}
	live := Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000}
	cases := []struct {
		name   string
		ctrl   func(*memctrl.Config)
		facade Config
		cell   *dsweep.CellSpec // nil: a cell cannot express the rule
	}{
		{
			name: "alloy+migration",
			ctrl: func(c *memctrl.Config) {
				c.Scheme = scheme.Spec{Kind: scheme.KindAlloy}
				c.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
			},
			facade: Config{Scheme: "alloy", Migration: live},
			cell:   &dsweep.CellSpec{Scheme: "alloy", Design: "live", Interval: 1000},
		},
		{
			name: "cachemode+audit",
			ctrl: func(c *memctrl.Config) {
				c.Scheme = scheme.Spec{Kind: scheme.KindCacheMode}
				c.Audit = true
			},
			facade: Config{Scheme: "cachemode", Audit: true},
		},
		{
			name:   "memcache without migration",
			ctrl:   func(c *memctrl.Config) { c.Scheme = scheme.Spec{Kind: scheme.KindMemCache} },
			facade: Config{Scheme: "memcache"},
			cell:   &dsweep.CellSpec{Scheme: "memcache", Design: "none"},
		},
		{
			name:   "zero swap interval",
			ctrl:   func(c *memctrl.Config) { c.Migration = &core.Options{Design: core.DesignLive} },
			facade: Config{Migration: Migration{Enabled: true, Design: DesignLive}},
			cell:   &dsweep.CellSpec{Design: "live"},
		},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base controller config rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.ctrl(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("memctrl.Config.Validate accepted it")
			}
			if _, err := New(tc.facade); err == nil {
				t.Error("heteromem.New accepted it")
			}
			if tc.cell != nil {
				cell := *tc.cell
				cell.Workload, cell.Seed, cell.Records = "pgbench", 1, 1000
				if err := cell.Validate(); err == nil {
					t.Error("dsweep.CellSpec.Validate accepted it")
				}
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	sys, _ := New(Config{})
	if _, err := sys.RunWorkload("nope", 1, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(Workloads()) != 6 {
		t.Fatalf("%d trace workloads, want 6", len(Workloads()))
	}
	if len(ProgramWorkloads()) != 10 {
		t.Fatalf("%d program workloads, want 10", len(ProgramWorkloads()))
	}
}

func TestHardwareBitsExported(t *testing.T) {
	if got := HardwareBits(1*GiB, 4*MiB, 4*KiB); got != 9228 {
		t.Fatalf("HardwareBits = %d, want 9228", got)
	}
}

func TestCustomWorkload(t *testing.T) {
	spec := WorkloadSpec{
		Name: "custom", MeanGap: 50, Cores: 2,
		Components: []WorkloadComponent{
			{Name: "hot", Weight: 8, Region: 64 * MiB, Make: ZipfMaker(4096, 1.3, true)},
			{Name: "scan", Weight: 2, Region: 512 * MiB, Make: SeqMaker(64)},
		},
	}
	gen, err := NewGenerator(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		TotalCapacity:     1 * GiB,
		OnPackageCapacity: 128 * MiB,
		MacroPageSize:     256 * KiB,
		Migration:         Migration{Enabled: true, Design: DesignN1, SwapInterval: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OnShare <= 0 {
		t.Fatal("nothing routed on-package")
	}
}

func TestEffectivenessExported(t *testing.T) {
	if Effectiveness(200, 60, 60) != 100 {
		t.Fatal("effectiveness miscomputed")
	}
}

func TestMemoryWorkloadInspectable(t *testing.T) {
	spec, err := MemoryWorkload("FT")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Footprint() == 0 || len(spec.Components) == 0 {
		t.Fatal("FT spec empty")
	}
}

func TestSystemIsReusable(t *testing.T) {
	// Each Run starts from a fresh controller: results for the same inputs
	// must be identical, not influenced by earlier runs.
	sys, err := New(Config{
		MacroPageSize: 64 * KiB,
		Migration:     Migration{Enabled: true, Design: DesignLive, SwapInterval: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.RunWorkload("SPEC2006", 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.RunWorkload("SPEC2006", 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanDRAMLatency != b.MeanDRAMLatency || a.Report.OnShare != b.Report.OnShare {
		t.Fatalf("runs diverged: %.3f/%.3f vs %.3f/%.3f",
			a.MeanDRAMLatency, a.Report.OnShare, b.MeanDRAMLatency, b.Report.OnShare)
	}
}
