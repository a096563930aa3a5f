package ucx

import (
	"sync"
	"testing"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

func testContext(t *testing.T, mut func(*Config)) *Context {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	ctx, err := NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestPlanForMatchesPut pins that the goroutine-safe planning entry point
// computes the same configuration the transport uses on the Put path.
func TestPlanForMatchesPut(t *testing.T) {
	ctx := testContext(t, nil)
	w := ctx.NewWorker(0)
	ep, err := w.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 64.0 * hw.MiB
	pl, err := ctx.PlanFor(0, 1, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ep.Put(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Runtime().Sim().Run(); err != nil {
		t.Fatal(err)
	}
	if !req.Multipath || req.Plan == nil {
		t.Fatal("Put did not take the multi-path rendezvous route")
	}
	if req.Plan != pl {
		// Same cache, same key: the transport must have shared the plan.
		t.Fatalf("Put plan %p differs from PlanFor plan %p", req.Plan, pl)
	}
}

// TestContextConcurrentPlanning hammers the shared context's planning path
// — the core model, the bidir/pattern derived planners, and the stats
// counters — from many goroutines. Run with -race this is the gate for
// "one concurrent model per pair".
func TestContextConcurrentPlanning(t *testing.T) {
	ctx := testContext(t, func(cfg *Config) {
		cfg.BidirAware = true
		cfg.PatternAwareMinBytes = 8 * hw.MiB
	})
	pairs := [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 3}}
	hints := [][][2]int{nil, {{1, 0}}, {{2, 3}, {3, 2}}}

	const G = 12
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < 400; op++ {
				pair := pairs[(g+op)%len(pairs)]
				hint := hints[op%len(hints)]
				n := float64(16*hw.MiB + (op%8)*hw.MiB)
				pl, err := ctx.PlanFor(pair[0], pair[1], n, hint)
				if err != nil {
					t.Error(err)
					return
				}
				if pl.Bytes != n || pl.Src != pair[0] || pl.Dst != pair[1] {
					t.Errorf("wrong plan for pair %v: %+v", pair, pl)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Derived planners must have been built once per pattern/pair, not
	// once per call: every pattern model build plans its hint pairs
	// against the shared model, so a bounded number of distinct builds is
	// the observable invariant.
	ctx.modelMu.Lock()
	nPattern, nBidir := len(ctx.patternModels), len(ctx.bidirModels)
	ctx.modelMu.Unlock()
	if nPattern == 0 || nPattern > len(pairs)*len(hints) {
		t.Fatalf("pattern models = %d, want in (0, %d]", nPattern, len(pairs)*len(hints))
	}
	if nBidir == 0 || nBidir > len(pairs) {
		t.Fatalf("bidir models = %d, want in (0, %d]", nBidir, len(pairs))
	}
}

// TestCountersSurviveConcurrentReads checks the atomic counters: readers
// racing sequential Puts see monotonic values and the final counts are
// exact.
func TestCountersSurviveConcurrentReads(t *testing.T) {
	ctx := testContext(t, nil)
	w := ctx.NewWorker(0)
	ep, err := w.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				if p := ctx.StatsSnapshot().Puts; p < last {
					t.Errorf("Puts went backwards: %d -> %d", last, p)
					return
				} else {
					last = p
				}
			}
		}()
	}
	const puts = 50
	for i := 0; i < puts; i++ {
		if _, err := ep.Put(32 * hw.MiB); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if err := ctx.Runtime().Sim().Run(); err != nil {
		t.Fatal(err)
	}
	st := ctx.StatsSnapshot()
	if st.Puts != puts {
		t.Fatalf("Puts = %d, want %d", st.Puts, puts)
	}
	if st.IpcOpens != 1 {
		t.Fatalf("IpcOpens = %d, want 1 (translation cache)", st.IpcOpens)
	}
}
