package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// benchPlan is a typical multi-path shape: a direct path plus a GPU-staged
// path of 8 chunks with a per-chunk staging cost ε.
func benchPlan() *core.Plan {
	return manualPlan(2e6, directPlanPath(0, 1, 1e6), stagedPlanPath(0, 2, 1, 1e6, 8, 1e-6))
}

// BenchmarkEagerStagedTransfer measures one eager execution of benchPlan,
// run to completion. Its allocations are the stream-operation records,
// the flows and the per-path records; no closures.
func BenchmarkEagerStagedTransfer(b *testing.B) {
	s, e := syntheticEngine(b, DefaultConfig())
	pl := benchPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(pl)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if !res.Done.Fired() {
			b.Fatal("transfer did not complete")
		}
	}
}

// BenchmarkGraphReplay measures one replay of benchPlan compiled into a
// transfer graph, run to completion.
func BenchmarkGraphReplay(b *testing.B) {
	s, e := syntheticEngine(b, DefaultConfig())
	cp, err := e.Compile(benchPlan())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecuteCompiledSpan(cp, obs.NoSpan)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if !res.Done.Fired() {
			b.Fatal("replay did not complete")
		}
	}
}
