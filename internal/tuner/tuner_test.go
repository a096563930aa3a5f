package tuner

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func TestCompositionsSumToOne(t *testing.T) {
	count := 0
	compositions(3, 0.25, func(thetas []float64) {
		count++
		var sum float64
		for _, th := range thetas {
			if th < -1e-12 {
				t.Fatalf("negative share: %v", thetas)
			}
			sum += th
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shares sum to %v: %v", sum, thetas)
		}
	})
	// Staged dims: 2 free dims with 5 levels each, constrained: C(6,2)=15.
	if count != 15 {
		t.Fatalf("composition count = %d, want 15", count)
	}
}

func TestMeasurePlanDirect(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := spec.EnumeratePaths(0, 1, hw.DirectOnly)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(node, paths, 64*hw.MiB, []float64{1}, ChunkPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := MeasurePlan(spec, plan, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 2e-6 + 64*hw.MiB/(48*hw.GBps)
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("direct measurement %v, want %v", elapsed, want)
	}
}

func TestMeasurePlanWindowScales(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := spec.EnumeratePaths(0, 1, hw.DirectOnly)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(node, paths, 64*hw.MiB, []float64{1}, ChunkPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := MeasurePlanWindow(spec, plan, 1, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	four, err := MeasurePlanWindow(spec, plan, 4, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Four concurrent copies share the same link: ~4x the time.
	if ratio := four / one; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("window scaling ratio %v, want ~4", ratio)
	}
}

func TestBuildPlanLeftoverToDirect(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := spec.EnumeratePaths(0, 1, hw.ThreeGPUs)
	if err != nil {
		t.Fatal(err)
	}
	n := 100.0 * hw.MiB
	plan, err := buildPlan(node, paths, n, []float64{0.5, 0.3, 0.2}, ChunkPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pp := range plan.Paths {
		sum += pp.Bytes
	}
	if sum != n {
		t.Fatalf("plan bytes %v != %v", sum, n)
	}
	if plan.Paths[0].Bytes != n-0.3*n-0.2*n {
		t.Fatalf("direct share %v", plan.Paths[0].Bytes)
	}
}

func TestBuildPlanRejectsOversubscription(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := spec.EnumeratePaths(0, 1, hw.TwoGPUs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildPlan(node, paths, 1e6, []float64{0, 1.5}, ChunkPolicy{}); err == nil {
		t.Fatal("oversubscribed shares accepted")
	}
}

func TestExhaustiveSearchBeatsDirect(t *testing.T) {
	spec := hw.Beluga()
	opts := DefaultSearchOptions()
	opts.Step = 0.25
	opts.Refine = false
	res, err := ExhaustiveSearch(spec, 0, 1, hw.TwoGPUs, 128*hw.MiB, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Step 0.25 over two paths is a grid of five share vectors; every one
	// is either measured or pruned, and at least one is measured.
	if res.Measured+res.Pruned != 5 {
		t.Fatalf("measured %d + pruned %d, want the 5-point grid", res.Measured, res.Pruned)
	}
	if res.Measured < 1 {
		t.Fatalf("measured %d candidates", res.Measured)
	}
	direct := 48 * hw.GBps * 1.0
	if res.Bandwidth < 1.5*direct {
		t.Fatalf("static best %.2f GB/s does not beat direct meaningfully", res.Bandwidth/1e9)
	}
	// Best distribution must use the staged path.
	if res.Thetas[1] == 0 {
		t.Fatal("search never assigned share to the staged path")
	}
}

func TestExhaustiveSearchRefineImproves(t *testing.T) {
	spec := hw.Beluga()
	coarse := DefaultSearchOptions()
	coarse.Step = 0.25
	coarse.Refine = false
	refined := coarse
	refined.Refine = true
	n := 128.0 * hw.MiB
	r1, err := ExhaustiveSearch(spec, 0, 1, hw.TwoGPUs, n, coarse)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExhaustiveSearch(spec, 0, 1, hw.TwoGPUs, n, refined)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bandwidth < r1.Bandwidth {
		t.Fatalf("refinement regressed: %.3f vs %.3f GB/s", r2.Bandwidth/1e9, r1.Bandwidth/1e9)
	}
}

// Headline check at small scale: the model's prediction should sit within
// a few percent of the exhaustively-found optimum for a large message.
func TestModelPredictionNearStaticOptimum(t *testing.T) {
	spec := hw.Beluga()
	n := 256.0 * hw.MiB
	opts := DefaultSearchOptions()
	opts.Step = 0.10
	opts.Refine = true
	static, err := ExhaustiveSearch(spec, 0, 1, hw.ThreeGPUs, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions())
	paths, err := spec.EnumeratePaths(0, 1, hw.ThreeGPUs)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.PredictBandwidth(paths, n)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(pred-static.Bandwidth) / static.Bandwidth
	if relErr > 0.08 {
		t.Fatalf("prediction error vs static optimum = %.1f%% (pred %.2f, static %.2f GB/s)",
			relErr*100, pred/1e9, static.Bandwidth/1e9)
	}
	// And the dynamically executed model plan should achieve similar
	// bandwidth to the static optimum.
	pl, err := m.PlanTransfer(paths, n)
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := MeasurePlan(spec, pl, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dynBW := n / elapsed
	if gap := (static.Bandwidth - dynBW) / static.Bandwidth; gap > 0.08 {
		t.Fatalf("dynamic plan %.1f%% below static optimum", gap*100)
	}
}

func TestExhaustiveSearchInvalidInputs(t *testing.T) {
	spec := hw.Beluga()
	if _, err := ExhaustiveSearch(spec, 0, 1, hw.TwoGPUs, 1e6, SearchOptions{Step: 0}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := ExhaustiveSearch(spec, 0, 0, hw.TwoGPUs, 1e6, DefaultSearchOptions()); err == nil {
		t.Error("src==dst accepted")
	}
}
