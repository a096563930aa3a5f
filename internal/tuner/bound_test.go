package tuner

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// boundCases are the clusters, path sets and sizes the bound tests cover:
// the paper's two machines, every multi-path set the figures tune, and the
// ends and middle of the figures' size sweep.
var boundCases = struct {
	clusters, pathSets []string
	sizes              []float64
}{
	clusters: []string{"beluga", "narval"},
	pathSets: []string{"2gpus", "3gpus", "3gpus_host"},
	sizes:    []float64{2 * hw.MiB, 64 * hw.MiB, 512 * hw.MiB},
}

// forEachBoundCase runs fn once per (cluster, path set, size) of
// boundCases as a subtest.
func forEachBoundCase(t *testing.T, fn func(t *testing.T, spec *hw.Spec, sel hw.PathSet, n float64)) {
	for _, cluster := range boundCases.clusters {
		for _, ps := range boundCases.pathSets {
			sel, err := ucx.PathSetByName(ps)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range boundCases.sizes {
				t.Run(fmt.Sprintf("%s/%s/%gMiB", cluster, ps, n/hw.MiB), func(t *testing.T) {
					fn(t, hw.Presets[cluster](), sel, n)
				})
			}
		}
	}
}

// TestLowerBoundHolds measures every coarse step-0.10 candidate and checks
// that its elapsed time is at least its capacity bound, with no slack: the
// bound is what lets the search skip a candidate without measuring it.
func TestLowerBoundHolds(t *testing.T) {
	opts := DefaultSearchOptions()
	forEachBoundCase(t, func(t *testing.T, spec *hw.Spec, sel hw.PathSet, n float64) {
		paths, err := spec.EnumeratePaths(0, 1, sel)
		if err != nil {
			t.Fatal(err)
		}
		node, err := hw.Build(sim.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range coarseGrid(len(paths), opts) {
			plan, err := buildPlan(node, paths, n, c.thetas, c.policy)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := capacityBound(node, plan)
			if err != nil {
				t.Fatal(err)
			}
			elapsed, err := MeasurePlan(spec, plan, opts.EngineConfig)
			if err != nil {
				t.Fatal(err)
			}
			if !(bound > 0) || elapsed < bound {
				t.Fatalf("thetas %v: elapsed %v, capacity bound %v", c.thetas, elapsed, bound)
			}
		}
	})
}

// fullGridSearch is the search without a bound: it measures every grid
// point of both passes and folds them in enumeration order with the strict
// improvement rule. Knowing every point's time, it then counts as measured
// the points a search that checks the bound before each measurement
// cannot skip: in ascending-bound order, each point whose n/bound reaches
// the best bandwidth of the points before it (and of earlier passes).
func fullGridSearch(t *testing.T, spec *hw.Spec, sel hw.PathSet, n float64, opts SearchOptions) *Result {
	t.Helper()
	paths, err := spec.EnumeratePaths(0, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	best := &Result{}
	measureAll := func(cands []candidate) {
		type point struct{ bound, bandwidth float64 }
		points := make([]point, len(cands))
		top := best.Bandwidth
		for i, c := range cands {
			plan, err := buildPlan(node, paths, n, c.thetas, c.policy)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := capacityBound(node, plan)
			if err != nil {
				t.Fatal(err)
			}
			elapsed, err := MeasurePlan(spec, plan, opts.EngineConfig)
			if err != nil {
				t.Fatal(err)
			}
			points[i] = point{bound * (1 - boundSlack), n / elapsed}
			if n/elapsed > best.Bandwidth {
				best.Bandwidth = n / elapsed
				best.Elapsed = elapsed
				best.Thetas = append([]float64(nil), c.thetas...)
				best.Chunks = make([]int, len(plan.Paths))
				for j := range plan.Paths {
					best.Chunks[j] = plan.Paths[j].Chunks
				}
			}
		}
		sort.SliceStable(points, func(a, b int) bool { return points[a].bound < points[b].bound })
		needed := 0
		for _, p := range points {
			if n/p.bound < top {
				break
			}
			needed++
			top = max(top, p.bandwidth)
		}
		best.Measured += needed
		best.Pruned += len(points) - needed
	}
	measureAll(coarseGrid(len(paths), opts))
	if opts.Refine && len(best.Thetas) > 0 {
		measureAll(refineGrid(best.Thetas, opts))
	}
	return best
}

// TestBoundedSearchMatchesFullGrid checks that skipping candidates by
// their capacity bound never changes the static baseline: the bounded
// search returns the full grid's winner bit for bit, at one and at four
// workers, and measures exactly the candidates that a bound check before
// each measurement cannot skip.
func TestBoundedSearchMatchesFullGrid(t *testing.T) {
	opts := DefaultSearchOptions()
	opts.Refine = true
	var pruned int
	forEachBoundCase(t, func(t *testing.T, spec *hw.Spec, sel hw.PathSet, n float64) {
		want := fullGridSearch(t, spec, sel, n, opts)
		for _, workers := range []int{1, 4} {
			o := opts
			o.Workers = workers
			got, err := ExhaustiveSearch(spec, 0, 1, sel, n, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Thetas, want.Thetas) || !reflect.DeepEqual(got.Chunks, want.Chunks) ||
				math.Float64bits(got.Bandwidth) != math.Float64bits(want.Bandwidth) ||
				math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
				t.Fatalf("workers=%d: bounded search %+v, full grid %+v", workers, got, want)
			}
			if got.Measured != want.Measured || got.Pruned != want.Pruned || got.Measured < 1 {
				t.Fatalf("workers=%d: measured %d, pruned %d; want %d, %d of the %d-point grid",
					workers, got.Measured, got.Pruned, want.Measured, want.Pruned, want.Measured+want.Pruned)
			}
			pruned += got.Pruned
		}
	})
	if pruned == 0 {
		t.Fatal("the bound pruned no candidate in any case")
	}
}
