package main

// pins holds the digest of every simulated output at the pinned seeds, taken
// at the commit that defined the benchmark (scale 1): sim.Result for replay
// and for the sharded-obs part of its traced run, the Table IV rows for
// table4, and the per-cell manifest results for the fleet part of its traced
// run; "<workload>/accuracy" pins the Table IV rows behind eta_mae_pp. A
// perf change must leave every one byte-identical.
// Seeds without a pin fall back to cross-path checks (see verify).
var pins = map[string]string{
	"replay/seed=1":      "63127141adc62483",
	"sharded-obs/seed=1": "8b7d00ef2055aa63",
	"table4/seed=1":      "7f2fb657d6a482b8",
	"fleet/seed=1":       "5c6e9bf1f485c02f",
	"replay/accuracy":    "b896ffb2e23fdac4",
	"table4/accuracy":    "f7e49780889644f5",
}

// pinned returns the pinned digest of an output key, or "" when there is
// none at this scale.
func pinned(key string, scale uint64) string {
	if scale != 1 {
		return ""
	}
	return pins[key]
}
