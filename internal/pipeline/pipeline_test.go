package pipeline

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func syntheticEngine(t testing.TB, cfg Config) (*sim.Simulator, *Engine) {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, hw.Synthetic())
	if err != nil {
		t.Fatal(err)
	}
	return s, New(cuda.NewRuntime(node), cfg)
}

// manualPlan builds a plan directly, bypassing the model, so tests can
// assert exact simulated times.
func manualPlan(n float64, paths ...core.PathPlan) *core.Plan {
	pl := &core.Plan{Src: paths[0].Path.Src, Dst: paths[0].Path.Dst, Bytes: n, Paths: paths}
	return pl
}

func directPlanPath(src, dst int, bytes float64) core.PathPlan {
	return core.PathPlan{
		Path:   hw.Path{Kind: hw.Direct, Src: src, Dst: dst},
		Param:  core.PathParam{Path: hw.Path{Kind: hw.Direct, Src: src, Dst: dst}, Legs: []core.LinkParam{{Alpha: 0, Beta: 100}}},
		Bytes:  bytes,
		Chunks: 1,
	}
}

func stagedPlanPath(src, via, dst int, bytes float64, chunks int, eps float64) core.PathPlan {
	p := hw.Path{Kind: hw.GPUStaged, Src: src, Dst: dst, Via: via}
	return core.PathPlan{
		Path: p,
		Param: core.PathParam{
			Path: p,
			Legs: []core.LinkParam{{Alpha: 0, Beta: 100}, {Alpha: 0, Beta: 100}},
			Eps:  eps,
		},
		Bytes:  bytes,
		Chunks: chunks,
	}
}

func run(t *testing.T, s *sim.Simulator, e *Engine, pl *core.Plan) *Result {
	t.Helper()
	res, err := e.Execute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Done.Fired() {
		t.Fatal("transfer never completed")
	}
	if res.Done.Err() != nil {
		t.Fatalf("transfer failed: %v", res.Done.Err())
	}
	return res
}

func TestDirectTransferTiming(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	res := run(t, s, e, manualPlan(400, directPlanPath(0, 1, 400)))
	almost(t, res.Elapsed(), 4.0, 1e-9, "direct: n/β")
	almost(t, res.Bandwidth(), 100, 1e-6, "direct bandwidth")
}

func TestStagedSingleChunkSequentialLegs(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	res := run(t, s, e, manualPlan(400, stagedPlanPath(0, 2, 1, 400, 1, 0)))
	// One chunk: leg1 then leg2, each 4 s.
	almost(t, res.Elapsed(), 8.0, 1e-9, "staged k=1")
}

func TestStagedPipelineOverlap(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	res := run(t, s, e, manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0)))
	// Equal-speed legs, k chunks: T = (k+1)/k · n/β = 5 s.
	almost(t, res.Elapsed(), 5.0, 1e-9, "staged k=4 pipelined")
}

func TestStagedEpsilonPerChunk(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	eps := 0.1
	res := run(t, s, e, manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, eps)))
	// Second leg becomes the bottleneck: each of its chunks costs ε + 1 s.
	// First chunk lands at 1 s (leg1) + ε + 1 s; remaining 3 chunks each
	// add ε + 1 s (leg2 is saturated): T = 1 + 4·(1.1) = 5.4 s.
	almost(t, res.Elapsed(), 5.4, 1e-9, "staged with per-chunk ε")
}

func TestRingBufferSingleSlotSerializes(t *testing.T) {
	s, e := syntheticEngine(t, Config{StagingSlots: 1, SequentialInitiation: true})
	res := run(t, s, e, manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0)))
	// One slot: chunk c+1 may not start leg1 until chunk c finished leg2.
	// Legs never overlap across chunks: T = 2·n/β = 8 s.
	almost(t, res.Elapsed(), 8.0, 1e-9, "single-slot ring buffer")
}

func TestMultiPathDisjointRoutes(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	pl := manualPlan(600,
		directPlanPath(0, 1, 300),
		stagedPlanPath(0, 2, 1, 300, 3, 0),
	)
	res := run(t, s, e, pl)
	// Direct: 3 s. Staged k=3: (k+1)/k·3 = 4 s. Total = max = 4 s.
	almost(t, res.Elapsed(), 4.0, 1e-9, "multi-path max of paths")
	almost(t, res.PathDone[0]-res.Started, 3.0, 1e-9, "direct path done")
	almost(t, res.PathDone[1]-res.Started, 4.0, 1e-9, "staged path done")
}

func TestSequentialInitiationOffsetsPaths(t *testing.T) {
	s := sim.New()
	spec := hw.Synthetic()
	// Give NVLink a visible launch latency.
	for p := range spec.NVLink {
		spec.NVLink[p] = hw.LinkProps{Bandwidth: 100, Latency: 0.5}
	}
	node, err := hw.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cuda.NewRuntime(node), DefaultConfig())
	mkDirect := func(bytes float64) core.PathPlan {
		pp := directPlanPath(0, 1, bytes)
		pp.Param.Legs[0].Alpha = 0.5
		return pp
	}
	mkStaged := func(bytes float64) core.PathPlan {
		pp := stagedPlanPath(0, 2, 1, bytes, 1, 0)
		pp.Param.Legs[0].Alpha = 0.5
		pp.Param.Legs[1].Alpha = 0.5
		return pp
	}
	pl := manualPlan(200, mkDirect(100), mkStaged(100))
	res := run(t, s, e, pl)
	// Direct: α + n/β = 0.5 + 1 = 1.5.
	// Staged starts 0.5 later (sequential initiation), then
	// α + 1 + α' + 1 = 3.0 → done at 3.5.
	almost(t, res.PathDone[0]-res.Started, 1.5, 1e-9, "direct timing")
	almost(t, res.PathDone[1]-res.Started, 3.5, 1e-9, "staged offset by initiation")
}

func TestHostStagedUsesMemChannel(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	p := hw.Path{Kind: hw.HostStaged, Src: 0, Dst: 1, Via: 0}
	pl := manualPlan(100, core.PathPlan{
		Path: p,
		Param: core.PathParam{
			Path: p,
			Legs: []core.LinkParam{{Alpha: 0, Beta: 10}, {Alpha: 0, Beta: 10}},
		},
		Bytes:  100,
		Chunks: 2,
	})
	res := run(t, s, e, pl)
	if res.Elapsed() <= 0 {
		t.Fatal("no elapsed time")
	}
	mem := e.Runtime().Node().MemLink(0)
	// The chunk passes through host memory twice (in and out).
	almost(t, mem.BytesCarried(), 200, 1e-6, "memory channel traffic")
}

func TestStagingMemoryFreedAfterTransfer(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	via := e.Runtime().Device(2)
	before := via.FreeMemory()
	pl := manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0))
	run(t, s, e, pl)
	if via.FreeMemory() != before {
		t.Fatalf("staging memory leaked: %v -> %v", before, via.FreeMemory())
	}
	host := e.Runtime().Host(0)
	if host.Allocated() != 0 {
		t.Fatal("host staging memory leaked")
	}
}

func TestExecuteRejectsEmptyPlans(t *testing.T) {
	_, e := syntheticEngine(t, DefaultConfig())
	if _, err := e.Execute(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := e.Execute(&core.Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	pl := manualPlan(0, directPlanPath(0, 1, 0))
	if _, err := e.Execute(pl); err == nil {
		t.Error("plan with no active paths accepted")
	}
}

// Integration: the model's prediction should match the simulated transfer
// closely on a real preset for large messages (the paper's <6% regime).
func TestModelPredictionMatchesSimulation(t *testing.T) {
	for _, sel := range []struct {
		name string
		ps   hw.PathSet
		tol  float64
	}{
		{"direct", hw.DirectOnly, 0.02},
		{"2gpus", hw.TwoGPUs, 0.10},
		{"3gpus", hw.ThreeGPUs, 0.10},
		{"3gpus+host", hw.ThreeGPUsWithHost, 0.12},
	} {
		s := sim.New()
		node, err := hw.Build(s, hw.Beluga())
		if err != nil {
			t.Fatal(err)
		}
		e := New(cuda.NewRuntime(node), DefaultConfig())
		m := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions())
		paths, err := hw.Beluga().EnumeratePaths(0, 1, sel.ps)
		if err != nil {
			t.Fatal(err)
		}
		n := 256.0 * hw.MiB
		pl, err := m.PlanTransfer(paths, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(pl)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		pred := pl.PredictedTime
		meas := res.Elapsed()
		relErr := math.Abs(pred-meas) / meas
		if relErr > sel.tol {
			t.Errorf("%s: model %.6fs vs sim %.6fs (rel err %.1f%%, tol %.0f%%)",
				sel.name, pred, meas, relErr*100, sel.tol*100)
		}
	}
}

// Integration: multi-path should beat direct-only on Beluga by roughly the
// factors the paper reports (up to ~2.9x with four paths).
func TestMultiPathSpeedupShape(t *testing.T) {
	bw := func(ps hw.PathSet) float64 {
		s := sim.New()
		node, err := hw.Build(s, hw.Beluga())
		if err != nil {
			t.Fatal(err)
		}
		e := New(cuda.NewRuntime(node), DefaultConfig())
		m := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions())
		paths, err := hw.Beluga().EnumeratePaths(0, 1, ps)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := m.PlanTransfer(paths, 256*hw.MiB)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(pl)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return res.Bandwidth()
	}
	direct := bw(hw.DirectOnly)
	two := bw(hw.TwoGPUs)
	three := bw(hw.ThreeGPUs)
	four := bw(hw.ThreeGPUsWithHost)
	if !(direct < two && two < three && three < four) {
		t.Fatalf("bandwidths not increasing: %v %v %v %v", direct, two, three, four)
	}
	if sp := three / direct; sp < 2.3 || sp > 3.1 {
		t.Errorf("3-GPU speedup %.2fx outside expected band", sp)
	}
	if sp := four / direct; sp < 2.5 || sp > 3.4 {
		t.Errorf("4-path speedup %.2fx outside expected band", sp)
	}
}
