package core

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func belugaModel(t *testing.T, opts Options) (*hw.Node, *Model) {
	t.Helper()
	node, err := hw.Build(sim.New(), hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	return node, NewModel(SpecSource{Node: node}, opts)
}

func belugaPaths(t *testing.T, sel hw.PathSet) []hw.Path {
	t.Helper()
	ps, err := hw.Beluga().EnumeratePaths(0, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPlanDirectOnly(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	pl, err := m.PlanTransfer(belugaPaths(t, hw.DirectOnly), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(pl.Paths))
	}
	almostEq(t, pl.Paths[0].Bytes, 64*hw.MiB, 0, "all bytes on direct")
	if pl.Paths[0].Chunks != 1 {
		t.Fatalf("direct chunks = %d, want 1", pl.Paths[0].Chunks)
	}
	wantT := 2e-6 + 64*hw.MiB/(48*hw.GBps)
	almostEq(t, pl.PredictedTime, wantT, 1e-12, "direct prediction is Hockney")
}

func TestPlanSharesSumToMessage(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	for _, n := range []float64{2 * hw.MiB, 16 * hw.MiB, 128 * hw.MiB, 512 * hw.MiB} {
		pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUsWithHost), n)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, pp := range pl.Paths {
			sum += pp.Bytes
		}
		almostEq(t, sum, n, 0, "byte shares sum exactly to n")
	}
}

func TestPlanDirectGetsLargestShare(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUsWithHost), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	direct := pl.Paths[0]
	if direct.Path.Kind != hw.Direct {
		t.Fatal("first path is not direct")
	}
	for _, pp := range pl.Paths[1:] {
		if pp.Bytes >= direct.Bytes {
			t.Fatalf("path %v share %.0f >= direct %.0f", pp.Path, pp.Bytes, direct.Bytes)
		}
	}
}

func TestPlanStagedShareGrowsWithMessage(t *testing.T) {
	// Fig. 4 shape: staged fractions grow as n amortizes their startup.
	_, m := belugaModel(t, DefaultOptions())
	small, err := m.PlanTransfer(belugaPaths(t, hw.TwoGPUs), 2*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.PlanTransfer(belugaPaths(t, hw.TwoGPUs), 512*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if large.Paths[1].Theta <= small.Paths[1].Theta {
		t.Fatalf("staged θ did not grow: small %v, large %v",
			small.Paths[1].Theta, large.Paths[1].Theta)
	}
}

func TestPlanPredictedBandwidthImprovesWithPaths(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	n := 256 * hw.MiB * 1.0
	bwDirect, err := m.PredictBandwidth(belugaPaths(t, hw.DirectOnly), n)
	if err != nil {
		t.Fatal(err)
	}
	bw2, err := m.PredictBandwidth(belugaPaths(t, hw.TwoGPUs), n)
	if err != nil {
		t.Fatal(err)
	}
	bw3, err := m.PredictBandwidth(belugaPaths(t, hw.ThreeGPUs), n)
	if err != nil {
		t.Fatal(err)
	}
	bw4, err := m.PredictBandwidth(belugaPaths(t, hw.ThreeGPUsWithHost), n)
	if err != nil {
		t.Fatal(err)
	}
	if !(bwDirect < bw2 && bw2 < bw3 && bw3 < bw4) {
		t.Fatalf("bandwidth not increasing with paths: %v %v %v %v", bwDirect, bw2, bw3, bw4)
	}
	// Rough shape: three GPU paths should roughly triple the direct path.
	if ratio := bw3 / bwDirect; ratio < 2.2 || ratio > 3.2 {
		t.Fatalf("3-path speedup %v outside plausible range", ratio)
	}
}

func TestPlanCacheHits(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	paths := belugaPaths(t, hw.ThreeGPUs)
	if _, err := m.PlanTransfer(paths, 8*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanTransfer(paths, 8*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanTransfer(paths, 16*hw.MiB); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v, want 1 hit / 2 misses", st)
	}
	m.InvalidateCache()
	if _, err := m.PlanTransfer(paths, 8*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Misses != 3 {
		t.Fatal("invalidate did not clear the cache")
	}
}

func TestPlanGranularityAlignment(t *testing.T) {
	opts := DefaultOptions()
	opts.Granularity = 4096
	_, m := belugaModel(t, opts)
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range pl.Paths[1:] { // direct absorbs the leftover
		if rem := math.Mod(pp.Bytes, 4096); rem != 0 {
			t.Fatalf("path %v share %.0f not aligned", pp.Path, pp.Bytes)
		}
	}
}

func TestPlanSmallMessageFallsBackToDirect(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUsWithHost), 8*hw.KiB)
	if err != nil {
		t.Fatal(err)
	}
	active := pl.ActivePaths()
	if len(active) != 1 || active[0].Path.Kind != hw.Direct {
		t.Fatalf("small message should use only the direct path, got %d active", len(active))
	}
}

// TestPlanRefusesUnderflowingSizes checks that a size so small that n·Ω
// underflows is refused, instead of planned to a NaN split with a zero
// predicted time, and that a slightly larger tiny size still plans.
func TestPlanRefusesUnderflowingSizes(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	for _, sel := range []hw.PathSet{hw.DirectOnly, hw.ThreeGPUsWithHost} {
		for _, n := range []float64{5e-324, 1e-320, 1e-310, 1e-305} {
			if pl, err := m.PlanTransfer(belugaPaths(t, sel), n); err == nil {
				t.Fatalf("%v, n=%g: planned %+v, want an error", sel, n, pl)
			}
		}
		pl, err := m.PlanTransfer(belugaPaths(t, sel), 1e-300)
		if err != nil {
			t.Fatal(err)
		}
		if !(pl.PredictedTime > 0) || pl.Paths[0].Bytes != 1e-300 {
			t.Fatalf("%v, n=1e-300: plan %+v", sel, pl)
		}
	}
}

func TestPlanChunkBoundsRespected(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxChunks = 8
	opts.MinChunkBytes = hw.MiB
	_, m := belugaModel(t, opts)
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUsWithHost), 512*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range pl.ActivePaths() {
		if pp.Chunks < 1 || pp.Chunks > 8 {
			t.Fatalf("path %v chunks %d out of bounds", pp.Path, pp.Chunks)
		}
		if pp.Param.Staged() && pp.Chunks > 1 {
			if pp.Bytes/float64(pp.Chunks) < float64(hw.MiB)*0.99 {
				t.Fatalf("path %v chunk size below minimum", pp.Path)
			}
		}
	}
}

func TestPlanFixedChunkRule(t *testing.T) {
	opts := DefaultOptions()
	opts.ChunkRule = ChunksFixed
	opts.FixedChunks = 4
	opts.MinChunkBytes = 0
	_, m := belugaModel(t, opts)
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range pl.ActivePaths() {
		if pp.Param.Staged() && pp.Chunks != 4 {
			t.Fatalf("staged path chunks = %d, want 4", pp.Chunks)
		}
	}
}

func TestPlanNonPipelinedUsesSingleChunk(t *testing.T) {
	opts := DefaultOptions()
	opts.Pipelined = false
	_, m := belugaModel(t, opts)
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range pl.ActivePaths() {
		if pp.Chunks != 1 {
			t.Fatalf("non-pipelined chunks = %d, want 1", pp.Chunks)
		}
	}
	// Non-pipelined staging is slower than pipelined.
	m2 := NewModel(m.src, DefaultOptions())
	pl2, err := m2.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.PredictedTime >= pl.PredictedTime {
		t.Fatalf("pipelining did not help: %v vs %v", pl2.PredictedTime, pl.PredictedTime)
	}
}

func TestPlanLaunchAccumulationOrdersDeltas(t *testing.T) {
	opts := DefaultOptions()
	opts.AccumulateLaunch = true
	_, m := belugaModel(t, opts)
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	optsOff := DefaultOptions()
	optsOff.AccumulateLaunch = false
	m2 := NewModel(m.src, optsOff)
	pl2, err := m2.PlanTransfer(belugaPaths(t, hw.ThreeGPUs), 64*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// With accumulation, later paths carry strictly larger Δ.
	for i := 1; i < len(pl.Paths); i++ {
		if pl.Paths[i].Delta <= pl2.Paths[i].Delta {
			t.Fatalf("path %d Δ with accumulation (%v) not larger than without (%v)",
				i, pl.Paths[i].Delta, pl2.Paths[i].Delta)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	if _, err := m.PlanTransfer(nil, 1e6); err == nil {
		t.Error("empty path list accepted")
	}
	if _, err := m.PlanTransfer(belugaPaths(t, hw.DirectOnly), -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := m.PlanTransfer(belugaPaths(t, hw.DirectOnly), math.NaN()); err == nil {
		t.Error("NaN size accepted")
	}
}

func TestPlanPredictionConsistentWithAffineLaw(t *testing.T) {
	_, m := belugaModel(t, DefaultOptions())
	pl, err := m.PlanTransfer(belugaPaths(t, hw.ThreeGPUsWithHost), 128*hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, pp := range pl.ActivePaths() {
		tm := pp.Bytes*pp.Omega + pp.Delta
		almostEq(t, pp.Predicted, tm, 1e-15, "per-path prediction")
		if tm > worst {
			worst = tm
		}
	}
	almostEq(t, pl.PredictedTime, worst, 1e-15, "total = max path time")
	almostEq(t, pl.PredictedBandwidth, pl.Bytes/worst, 1e-3, "bandwidth")
}
