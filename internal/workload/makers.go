package workload

import "heteromem/internal/rng"

// The exported Maker helpers let callers (tests, examples, custom
// experiments) assemble Specs from the same pattern primitives the built-in
// workloads use.

// SeqMaker returns a Component.Make for a sequential sweep with the given
// stride.
func SeqMaker(stride uint64) func(*rng.Rand, uint64) stream {
	return func(_ *rng.Rand, region uint64) stream {
		return &seqStream{size: region, stride: stride}
	}
}

// StridedMaker returns a Component.Make for a transposed-dimension walk
// touching 64 B per stride position.
func StridedMaker(stride, unit uint64) func(*rng.Rand, uint64) stream {
	return func(_ *rng.Rand, region uint64) stream {
		return &stridedStream{size: region, stride: stride, unit: unit}
	}
}

// ZipfMaker returns a Component.Make for Zipf-skewed block accesses.
// scatter hashes block ranks across the region so the hot set is not
// contiguous.
func ZipfMaker(block uint64, s float64, scatter bool) func(*rng.Rand, uint64) stream {
	return func(rng *rng.Rand, region uint64) stream {
		return newZipfStream(rng, region, block, s, scatter)
	}
}

// UniformMaker returns a Component.Make for uniform random accesses.
func UniformMaker() func(*rng.Rand, uint64) stream {
	return func(_ *rng.Rand, region uint64) stream {
		return &uniformStream{size: region}
	}
}

// ChaseMaker returns a Component.Make for a pointer-chase walk.
func ChaseMaker() func(*rng.Rand, uint64) stream {
	return func(_ *rng.Rand, region uint64) stream {
		return &chaseStream{size: region, cur: 0x9e3779b97f4a7c15}
	}
}

// DriftMaker wraps another maker so its hot region wanders over the whole
// component every period accesses.
func DriftMaker(inner func(*rng.Rand, uint64) stream, span, period uint64) func(*rng.Rand, uint64) stream {
	return func(rng *rng.Rand, region uint64) stream {
		return &driftStream{inner: inner(rng, span), window: region, span: span, period: period}
	}
}

// VCycleMaker returns a Component.Make for a multigrid V-cycle pattern.
func VCycleMaker(levels, perVisit int) func(*rng.Rand, uint64) stream {
	return func(_ *rng.Rand, region uint64) stream {
		return newVCycleStream(region, levels, perVisit)
	}
}
