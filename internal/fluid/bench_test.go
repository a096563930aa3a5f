package fluid

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFluidChurn measures the re-rating hot path under heavy
// contention: a standing population of 64 overlapping flows, each crossing
// its component's shared bottleneck link and one of the component's
// private links, so every start and finish re-rates the whole component it
// touches. The sub-benchmarks spread the same flows over 1, 8 and 64
// disjoint components of one Network: re-rating scales with the touched
// component, settlement with the whole network. Allocations per op are the
// other headline metric: the progressive-filling scratch, active-set
// bookkeeping, and event churn must all be allocation-free (the per-op
// remainder is the unavoidable per-flow Flow/Signal setup).
func BenchmarkFluidChurn(b *testing.B) {
	for _, components := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("components=%d", components), func(b *testing.B) {
			benchFluidChurn(b, components)
		})
	}
}

func benchFluidChurn(b *testing.B, components int) {
	const standing = 64 // concurrent flows, spread evenly over the components
	s := sim.New()
	n := NewNetwork(s)
	shared := make([]*Link, components)
	privates := make([][]*Link, components)
	for c := range shared {
		shared[c] = n.AddLink("shared", 1000)
		for p := 0; p < max(1, 16/components); p++ {
			privates[c] = append(privates[c], n.AddLink("p", 400))
		}
	}
	done := 0
	// Each standing flow is a chain: when it finishes, the next flow of
	// the chain starts in the same component.
	var launch func(chain, i int)
	launch = func(chain, i int) {
		if done >= b.N {
			return
		}
		done++
		c := chain % components
		f := n.StartFlow(100+float64(i%7), shared[c], privates[c][i%len(privates[c])])
		f.Done().OnFire(func() { launch(chain, i+1) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for chain := 0; chain < standing; chain++ {
		launch(chain, chain*31)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFluidReallocateOnly isolates one re-rating of a standing flow
// set (no starts or finishes): component collection plus progressive
// filling over all 64 flows, which share one link.
func BenchmarkFluidReallocateOnly(b *testing.B) {
	s := sim.New()
	n := NewNetwork(s)
	shared := n.AddLink("shared", 1e12)
	privates := make([]*Link, 8)
	for i := range privates {
		privates[i] = n.AddLink("p", 1e12)
	}
	for i := 0; i < 64; i++ {
		n.StartFlow(1e15, shared, privates[i%len(privates)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.reach(shared)
		n.rerate()
	}
}
