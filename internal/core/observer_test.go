package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hw"
)

// obsParamSource serves fixed parameters so tests can see the observer's β
// correction directly in planned times.
type obsParamSource struct {
	mu    sync.Mutex
	calls int
}

func (s *obsParamSource) PathParams(p hw.Path) (PathParam, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	switch p.Kind {
	case hw.Direct:
		return PathParam{Path: p, Legs: []LinkParam{{Alpha: 1e-6, Beta: 100 * hw.GBps}}}, nil
	default:
		return PathParam{
			Path: p,
			Legs: []LinkParam{{Alpha: 1e-6, Beta: 20 * hw.GBps}, {Alpha: 1e-6, Beta: 20 * hw.GBps}},
			Eps:  2e-6,
		}, nil
	}
}

func obsPaths() []hw.Path {
	return []hw.Path{
		{Kind: hw.Direct, Src: 0, Dst: 1},
		{Kind: hw.GPUStaged, Src: 0, Dst: 1, Via: 2},
	}
}

func TestObserverNoDriftNoRefit(t *testing.T) {
	o := NewObserver(DefaultObserverOptions())
	for i := 0; i < 20; i++ {
		o.Record(hw.Direct, 1e-3, 1.02e-3) // 2% error, under the 10% threshold
	}
	st := o.Stats()
	if st.Refits != 0 {
		t.Fatalf("refits = %d, want 0", st.Refits)
	}
	if s := o.BetaScale(hw.Direct); s != 1 {
		t.Fatalf("scale = %v, want 1", s)
	}
}

func TestObserverDriftTriggersRefitAndInvalidation(t *testing.T) {
	src := &obsParamSource{}
	m := NewModel(src, DefaultOptions())
	o := NewObserver(DefaultObserverOptions())
	m.AttachObserver(o)

	paths := obsPaths()
	n := float64(64 * hw.MiB)
	before, err := m.PlanTransfer(paths, n)
	if err != nil {
		t.Fatal(err)
	}
	if m.CachedPlans() != 1 {
		t.Fatalf("cached = %d, want 1", m.CachedPlans())
	}

	// Direct path consistently takes 2× the prediction (capacity halved).
	for i := 0; i < 4; i++ {
		o.Record(hw.Direct, 1e-3, 2e-3)
	}
	st := o.Stats()
	if st.Refits != 1 {
		t.Fatalf("refits = %d, want 1", st.Refits)
	}
	if s := o.BetaScale(hw.Direct); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("direct scale = %v, want 0.5", s)
	}
	if s := o.BetaScale(hw.GPUStaged); s != 1 {
		t.Fatalf("staged scale = %v, want 1", s)
	}
	if m.CachedPlans() != 0 {
		t.Fatalf("cache not invalidated: %d plans", m.CachedPlans())
	}

	after, err := m.PlanTransfer(paths, n)
	if err != nil {
		t.Fatal(err)
	}
	// With the direct β halved the planner must shift share off the direct
	// path and predict a longer total time.
	if after.Paths[0].Bytes >= before.Paths[0].Bytes {
		t.Fatalf("direct share did not shrink: %v -> %v",
			before.Paths[0].Bytes, after.Paths[0].Bytes)
	}
	if after.PredictedTime <= before.PredictedTime {
		t.Fatalf("predicted time did not grow: %v -> %v",
			before.PredictedTime, after.PredictedTime)
	}
}

func TestObserverScaleClamped(t *testing.T) {
	opts := DefaultObserverOptions()
	opts.MaxScale = 4
	o := NewObserver(opts)
	// Repeated 10× drift would compound past the clamp without it.
	for round := 0; round < 5; round++ {
		for i := 0; i < opts.MinSamples; i++ {
			o.Record(hw.HostStaged, 1e-3, 1e-2)
		}
	}
	if s := o.BetaScale(hw.HostStaged); s < 1.0/4-1e-12 {
		t.Fatalf("scale %v fell below clamp 1/4", s)
	} else if s > 1.0/4+1e-12 {
		t.Fatalf("scale %v did not reach clamp 1/4", s)
	}
}

func TestObserverRecoveryScalesBack(t *testing.T) {
	o := NewObserver(DefaultObserverOptions())
	for i := 0; i < 4; i++ {
		o.Record(hw.Direct, 1e-3, 2e-3)
	}
	if s := o.BetaScale(hw.Direct); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("scale = %v, want 0.5", s)
	}
	// After the cache refreshes, predictions use the corrected β; if the
	// link actually recovered, transfers now finish in half the predicted
	// time and the observer must scale back up.
	for i := 0; i < 4; i++ {
		o.Record(hw.Direct, 2e-3, 1e-3)
	}
	if s := o.BetaScale(hw.Direct); math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("scale after recovery = %v, want 1", s)
	}
}

func TestObserverIgnoresDegenerateSamples(t *testing.T) {
	o := NewObserver(DefaultObserverOptions())
	o.Record(hw.Direct, 0, 1)
	o.Record(hw.Direct, 1, 0)
	o.Record(hw.Direct, -1, 1)
	o.Record(hw.Direct, math.NaN(), 1)
	o.Record(hw.Direct, 1, math.Inf(1))
	if st := o.Stats(); st.Samples != 0 {
		t.Fatalf("samples = %d, want 0", st.Samples)
	}
}

func TestObserverAdjustCopiesLegs(t *testing.T) {
	o := NewObserver(DefaultObserverOptions())
	for i := 0; i < 4; i++ {
		o.Record(hw.Direct, 1e-3, 2e-3)
	}
	orig := PathParam{
		Path: hw.Path{Kind: hw.Direct, Src: 0, Dst: 1},
		Legs: []LinkParam{{Alpha: 1e-6, Beta: 100}},
	}
	adj := o.adjust(orig)
	if orig.Legs[0].Beta != 100 {
		t.Fatalf("adjust mutated the source slice: %v", orig.Legs[0])
	}
	if math.Abs(adj.Legs[0].Beta-50) > 1e-9 {
		t.Fatalf("adjusted β = %v, want 50", adj.Legs[0].Beta)
	}
}

func TestObserverConcurrentRecordAndPlan(t *testing.T) {
	src := &obsParamSource{}
	m := NewModel(src, DefaultOptions())
	o := NewObserver(DefaultObserverOptions())
	m.AttachObserver(o)
	paths := obsPaths()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					// Alternate drift directions so refits keep happening.
					ach := 2e-3
					if i%2 == 1 {
						ach = 0.5e-3
					}
					o.Record(hw.Direct, 1e-3, ach)
				} else {
					n := float64(1+i%7) * hw.MiB
					if _, err := m.PlanTransfer(paths, n); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := o.Stats(); st.Samples == 0 {
		t.Fatal("no samples recorded")
	}
}
