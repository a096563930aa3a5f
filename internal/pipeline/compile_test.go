package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

func runCompiled(t *testing.T, s *sim.Simulator, e *Engine, cp *CompiledPlan) *Result {
	t.Helper()
	res, err := e.ExecuteCompiledSpan(cp, obs.NoSpan)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Done.Fired() {
		t.Fatal("compiled transfer never completed")
	}
	if err := res.Done.Err(); err != nil {
		t.Fatalf("compiled transfer failed: %v", err)
	}
	return res
}

func TestCompiledDirectMatchesEager(t *testing.T) {
	// A direct-only plan has no staging synchronization, so the derived
	// launch overhead is zero and the replay must reproduce eager timing
	// exactly.
	s, e := syntheticEngine(t, DefaultConfig())
	pl := manualPlan(400, directPlanPath(0, 1, 400))
	eager := run(t, s, e, pl).Elapsed()

	cp, err := e.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	compiled := runCompiled(t, s, e, cp).Elapsed()
	if compiled != eager {
		t.Fatalf("compiled %v != eager %v", compiled, eager)
	}
	almost(t, compiled, 4.0, 1e-9, "direct replay timing")
}

func TestCompiledStagedSkipsPerChunkEpsilon(t *testing.T) {
	// Eager pays ε per chunk (5.4 s for this plan, see
	// TestStagedEpsilonPerChunk); the compiled graph bakes the leg-2
	// dependency as an edge, so the replay runs the pure pipeline (5.0 s —
	// the synthetic topology itself has zero sync overhead, hence zero
	// launch overhead too).
	s, e := syntheticEngine(t, DefaultConfig())
	pl := manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0.1))
	eager := run(t, s, e, pl).Elapsed()
	almost(t, eager, 5.4, 1e-9, "eager pays per-chunk ε")

	cp, err := e.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	res := runCompiled(t, s, e, cp)
	almost(t, res.Elapsed(), 5.0, 1e-9, "compiled pays ε zero times per chunk")
	almost(t, res.PathDone[0]-res.Started, 5.0, 1e-9, "per-path completion wired")
}

// TestCompiledLaunchOverrideCharged gives the topology a non-zero GPU
// staging synchronization cost and checks that a replay charges it exactly
// once: the staged plan's pure pipeline takes 5.0 s, a replay 5.5 s, and
// the plan's own per-chunk ε is not charged at all.
func TestCompiledLaunchOverrideCharged(t *testing.T) {
	spec := hw.Synthetic()
	spec.GPUSyncOverhead = 0.5
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cuda.NewRuntime(node), DefaultConfig())
	cp, err := e.Compile(manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0.1)))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	almost(t, runCompiled(t, s, e, cp).Elapsed(), 5.5, 1e-9, "first replay charges ε once")
	almost(t, runCompiled(t, s, e, cp).Elapsed(), 5.5, 1e-9, "second replay charges ε once")
}

// TestPatchedReplayMatchesFreshCompile is the GraphExecUpdate acceptance
// check: patching an existing graph to a new byte split must be
// indistinguishable in simulated time — bit-for-bit, no tolerance — from
// compiling the new plan from scratch.
func TestPatchedReplayMatchesFreshCompile(t *testing.T) {
	planA := func() *core.Plan {
		return manualPlan(800,
			directPlanPath(0, 1, 400),
			stagedPlanPath(0, 2, 1, 400, 4, 0),
		)
	}
	planB := func() *core.Plan {
		return manualPlan(800,
			directPlanPath(0, 1, 300),
			stagedPlanPath(0, 2, 1, 500, 4, 0),
		)
	}

	// Fresh: compile plan B directly.
	s1, e1 := syntheticEngine(t, DefaultConfig())
	fresh, err := e1.Compile(planB())
	if err != nil {
		t.Fatal(err)
	}
	resFresh := runCompiled(t, s1, e1, fresh)

	// Patched: compile plan A, replay it once, then patch to plan B. The
	// staged share grows from 400 to 500 bytes, so this also exercises the
	// staging-ring reallocation path.
	s2, e2 := syntheticEngine(t, DefaultConfig())
	cp, err := e2.Compile(planA())
	if err != nil {
		t.Fatal(err)
	}
	runCompiled(t, s2, e2, cp)
	if err := cp.UpdateTo(planB()); err != nil {
		t.Fatal(err)
	}
	resPatched := runCompiled(t, s2, e2, cp)

	if got, want := resPatched.Elapsed(), resFresh.Elapsed(); got != want {
		t.Fatalf("patched elapsed %v != fresh elapsed %v", got, want)
	}
	for i := range resFresh.PathDone {
		fp := resFresh.PathDone[i] - resFresh.Started
		pp := resPatched.PathDone[i] - resPatched.Started
		if fp != pp {
			t.Fatalf("path %d: patched %v != fresh %v", i, pp, fp)
		}
	}
	cp.Release()
	fresh.Release()
}

func TestPatchableStructuralRules(t *testing.T) {
	base := manualPlan(800,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 400, 4, 0),
	)
	rebalanced := manualPlan(800,
		directPlanPath(0, 1, 200),
		stagedPlanPath(0, 2, 1, 600, 4, 0),
	)
	if !Patchable(base, rebalanced) {
		t.Error("byte rebalance should be patchable")
	}
	rechunked := manualPlan(800,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 400, 8, 0),
	)
	if Patchable(base, rechunked) {
		t.Error("chunk-count change should not be patchable")
	}
	deactivated := manualPlan(400,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 0, 4, 0),
	)
	if Patchable(base, deactivated) {
		t.Error("path leaving the active set should not be patchable")
	}
	fewer := manualPlan(400, directPlanPath(0, 1, 400))
	if Patchable(base, fewer) {
		t.Error("path-list change should not be patchable")
	}
	if Patchable(nil, base) || Patchable(base, nil) {
		t.Error("nil plans should not be patchable")
	}

	_, e := syntheticEngine(t, DefaultConfig())
	cp, err := e.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	if err := cp.UpdateTo(rechunked); err == nil {
		t.Error("UpdateTo accepted a structural change")
	}
	if cp.Plan() != base {
		t.Error("failed update must leave the encoded plan unchanged")
	}
}

func TestCompiledReleaseFreesStagingAndBlocksReplay(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	via := e.Runtime().Device(2)
	before := via.FreeMemory()
	cp, err := e.Compile(manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if via.FreeMemory() >= before {
		t.Fatal("compile did not hold staging memory")
	}
	runCompiled(t, s, e, cp)
	if via.FreeMemory() >= before {
		t.Fatal("staging ring must persist across replays")
	}
	cp.Release()
	cp.Release() // idempotent
	if via.FreeMemory() != before {
		t.Fatalf("staging memory leaked: %v -> %v", before, via.FreeMemory())
	}
	if _, err := e.ExecuteCompiledSpan(cp, obs.NoSpan); err == nil {
		t.Fatal("replay of a released plan accepted")
	}
	if err := cp.UpdateTo(manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0))); err == nil {
		t.Fatal("UpdateTo on a released plan accepted")
	}
}

func TestCompileRejectsInvalidPlans(t *testing.T) {
	_, e := syntheticEngine(t, DefaultConfig())
	if _, err := e.Compile(nil); err == nil {
		t.Error("nil plan compiled")
	}
	if _, err := e.Compile(&core.Plan{}); err == nil {
		t.Error("empty plan compiled")
	}
	if _, err := e.Compile(manualPlan(0, directPlanPath(0, 1, 0))); err == nil {
		t.Error("plan with no active bytes compiled")
	}
}

// TestUpdateToFailedGrowthKeepsRing patches a compiled plan to a larger
// staged share while the staging GPU has no memory left for a grown ring.
// The patch must fail and leave the graph as it was: still holding its
// ring, still replaying the old split, and giving the ring back on
// Release.
func TestUpdateToFailedGrowthKeepsRing(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	via := e.Runtime().Device(2)
	before := via.FreeMemory()
	cp, err := e.Compile(manualPlan(800, directPlanPath(0, 1, 400), stagedPlanPath(0, 2, 1, 400, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	filler, err := via.Malloc(via.FreeMemory())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.UpdateTo(manualPlan(800, directPlanPath(0, 1, 100), stagedPlanPath(0, 2, 1, 700, 4, 0))); err == nil {
		t.Fatal("ring growth succeeded with no memory left")
	}
	if got := via.FreeMemory(); got != 0 {
		t.Fatalf("GPU 2 has %v bytes free after the failed growth, want 0 (the ring still held)", got)
	}
	res := runCompiled(t, s, e, cp)
	if got := cp.Plan().Paths[1].Bytes; got != 400 {
		t.Fatalf("staged share after the failed patch = %v, want 400", got)
	}
	almost(t, res.PathDone[1]-res.Started, 5.0, 1e-9, "old split still replays")
	if err := filler.Free(); err != nil {
		t.Fatal(err)
	}
	cp.Release()
	if got := via.FreeMemory(); got != before {
		t.Fatalf("GPU 2 has %v bytes free after Release, want %v", got, before)
	}
}
