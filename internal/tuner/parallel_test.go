package tuner

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/ucx"
)

// TestExhaustiveSearchParallelMatchesSequential checks that Workers
// changes nothing about one search's result: same thetas, chunks,
// bandwidth bits, and measured and pruned counts.
func TestExhaustiveSearchParallelMatchesSequential(t *testing.T) {
	spec := hw.Presets["beluga"]()
	sel, err := ucx.PathSetByName("2gpus")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSearchOptions()
	opts.Step = 0.20
	opts.Refine = true

	seq, err := ExhaustiveSearch(spec, 0, 1, sel, 32e6, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		opts.Workers = workers
		par, err := ExhaustiveSearch(spec, 0, 1, sel, 32e6, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel result %+v differs from sequential %+v", workers, par, seq)
		}
	}
}

// TestStaticPlannerParallelMatchesSequential builds the same static tuning
// sequentially and with a worker pool and compares every per-size entry.
func TestStaticPlannerParallelMatchesSequential(t *testing.T) {
	spec := hw.Presets["beluga"]()
	sel, err := ucx.PathSetByName("2gpus")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []float64{8e6, 32e6, 128e6}
	opts := DefaultSearchOptions()
	opts.Step = 0.25
	opts.Refine = false

	seq, err := NewStaticPlanner(spec, sel, sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := NewStaticPlanner(spec, sel, sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		a, okA := seq.Entry(n)
		b, okB := par.Entry(n)
		if !okA || !okB {
			t.Fatalf("missing entry for n=%v (seq %v, par %v)", n, okA, okB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%v: parallel entry %+v differs from sequential %+v", n, b, a)
		}
	}

	// The replayed plans must agree too (and be usable concurrently).
	paths, err := spec.EnumeratePaths(0, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{5e6, 64e6, 200e6} {
		pa, err := seq.PlanTransfer(paths, n)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := par.PlanTransfer(paths, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(pa.Paths) != len(pb.Paths) {
			t.Fatalf("n=%v: plan length mismatch", n)
		}
		for i := range pa.Paths {
			if pa.Paths[i].Bytes != pb.Paths[i].Bytes || pa.Paths[i].Chunks != pb.Paths[i].Chunks {
				t.Fatalf("n=%v path %d: (%v,%d) vs (%v,%d)", n, i,
					pa.Paths[i].Bytes, pa.Paths[i].Chunks, pb.Paths[i].Bytes, pb.Paths[i].Chunks)
			}
		}
	}
}

// TestMeasurePlanDeterministic pins the measurement primitive itself:
// repeated runs of one plan are bit-identical, which the static tuning
// relies on to give the same result at any worker count.
func TestMeasurePlanDeterministic(t *testing.T) {
	spec := hw.Presets["beluga"]()
	sel, err := ucx.PathSetByName("2gpus")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSearchOptions()
	res, err := ExhaustiveSearch(spec, 0, 1, sel, 16e6, SearchOptions{
		Step: 0.5, ChunkRules: opts.ChunkRules, EngineConfig: opts.EngineConfig,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || math.IsNaN(res.Elapsed) {
		t.Fatalf("bad elapsed %v", res.Elapsed)
	}
	again, err := ExhaustiveSearch(spec, 0, 1, sel, 16e6, SearchOptions{
		Step: 0.5, ChunkRules: opts.ChunkRules, EngineConfig: opts.EngineConfig,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != again.Elapsed || res.Bandwidth != again.Bandwidth {
		t.Fatalf("non-deterministic measurement: %v vs %v", res, again)
	}
}
