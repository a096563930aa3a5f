package fluid

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/par"
	"repro/internal/sim"
)

// Independent components are independent programs.
//
// A network holding one connected component settles and re-rates only
// at its own event instants, so its completion times and link statistics
// are a pure function of its own event schedule. They must not depend on
// which simulator queue the component's events interleave on, or on how
// many OS threads drive the simulators. That is what lets a fleet of
// independent nodes run on one simulator per node, fanned with
// par.ForEach, with the same bits as one shared simulator.

// componentWorkload is one component's scripted churn: link capacities
// plus start script, generated from a seed exactly like the churn
// reference test.
type componentWorkload struct {
	caps   []float64
	starts []churnStart
}

func genComponentWorkload(seed int64, flows int) componentWorkload {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, 6)
	for i := range caps {
		caps[i] = 50 + rng.Float64()*500
	}
	starts := make([]churnStart, flows)
	at := 0.0
	for i := range starts {
		if i > 0 && rng.Float64() < 0.25 {
			// burst: same instant as predecessor
		} else {
			at += rng.Float64() * 3
		}
		a := rng.Intn(len(caps))
		route := []int{a}
		if rng.Float64() < 0.6 {
			b := rng.Intn(len(caps))
			if b != a {
				route = append(route, b)
			}
		}
		starts[i] = churnStart{at: at, bytes: 1 + rng.Float64()*5e4, route: route}
	}
	return componentWorkload{caps: caps, starts: starts}
}

// componentResult captures every float observable the workload produces.
type componentResult struct {
	doneAt  [][]float64 // per component, per start: completion time
	carried [][]float64 // per component, per link: bytes carried
	busy    [][]float64 // per component, per link: busy time
}

func newComponentResult(n int) componentResult {
	return componentResult{doneAt: make([][]float64, n), carried: make([][]float64, n), busy: make([][]float64, n)}
}

// playComponent schedules one component's workload on a network and
// returns the slot its completion times will be written into.
func playComponent(s *sim.Simulator, n *Network, w componentWorkload) []float64 {
	links := make([]*Link, len(w.caps))
	for i, c := range w.caps {
		links[i] = n.AddLink("l", c)
	}
	done := make([]float64, len(w.starts))
	for i, st := range w.starts {
		i, st := i, st
		s.At(st.at, func() {
			route := make([]*Link, len(st.route))
			for j, li := range st.route {
				route[j] = links[li]
			}
			f := n.StartFlow(st.bytes, route...)
			f.Done().OnFire(func() { done[i] = s.Now() })
		})
	}
	return done
}

// linkStats returns a network's bytes carried and busy time, per link.
func linkStats(n *Network) (carried, busy []float64) {
	for _, l := range n.Links() {
		carried = append(carried, l.BytesCarried())
		busy = append(busy, l.BusyTime())
	}
	return carried, busy
}

// runOneSimulator plays every component in its own network on one shared
// Simulator, so all their events interleave in one queue.
func runOneSimulator(t *testing.T, works []componentWorkload) componentResult {
	t.Helper()
	s := sim.New()
	nets := make([]*Network, len(works))
	res := newComponentResult(len(works))
	for c, w := range works {
		nets[c] = NewNetwork(s)
		res.doneAt[c] = playComponent(s, nets[c], w)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for c, n := range nets {
		res.carried[c], res.busy[c] = linkStats(n)
	}
	return res
}

// runPerComponent plays each component on its own Simulator, fanned
// across workers with par.ForEach.
func runPerComponent(t *testing.T, works []componentWorkload, workers int) componentResult {
	t.Helper()
	res := newComponentResult(len(works))
	err := par.ForEach(len(works), workers, func(c int) error {
		s := sim.New()
		n := NewNetwork(s)
		res.doneAt[c] = playComponent(s, n, works[c])
		if err := s.Run(); err != nil {
			return err
		}
		res.carried[c], res.busy[c] = linkStats(n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireIdentical(t *testing.T, label string, want, got componentResult) {
	t.Helper()
	check := func(kind string, a, b [][]float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s component count %d != %d", label, kind, len(b), len(a))
		}
		for c := range a {
			if len(a[c]) != len(b[c]) {
				t.Fatalf("%s: %s component %d has %d entries, want %d", label, kind, c, len(b[c]), len(a[c]))
			}
			for i := range a[c] {
				if a[c][i] != b[c][i] {
					t.Fatalf("%s: %s component %d entry %d = %v, want %v (diff %g)",
						label, kind, c, i, b[c][i], a[c][i], b[c][i]-a[c][i])
				}
			}
		}
	}
	check("doneAt", want.doneAt, got.doneAt)
	check("carried", want.carried, got.carried)
	check("busy", want.busy, got.busy)
}

// TestComponentsIndependentOfSimulator runs an 8-component churn
// workload with every component network on one Simulator, and with one
// Simulator per component at 1, 2 and 8 workers: completion times, bytes
// carried and busy times must be bit-identical.
func TestComponentsIndependentOfSimulator(t *testing.T) {
	const components = 8
	flows := 80
	if testing.Short() {
		flows = 30
	}
	for _, baseSeed := range []int64{1, 42, 1234} {
		works := make([]componentWorkload, components)
		for c := range works {
			works[c] = genComponentWorkload(baseSeed+int64(c)*1000, flows)
		}
		want := runOneSimulator(t, works)
		for _, workers := range []int{1, 2, 8} {
			got := runPerComponent(t, works, workers)
			requireIdentical(t, fmt.Sprintf("seed %d workers %d", baseSeed, workers), want, got)
		}
	}
}

// TestFusedComponentsMatchReference plays the eight churn components in
// one Network on one Simulator, so each start and finish re-rates only
// its own component, and requires completion times bit-equal to the
// reference's network-wide filling over the union of their links.
func TestFusedComponentsMatchReference(t *testing.T) {
	const components = 8
	flows := 80
	if testing.Short() {
		flows = 30
	}
	for _, baseSeed := range []int64{1, 42, 1234} {
		works := make([]componentWorkload, components)
		var caps []float64
		var starts []churnStart
		for c := range works {
			w := genComponentWorkload(baseSeed+int64(c)*1000, flows)
			works[c] = w
			base := len(caps)
			caps = append(caps, w.caps...)
			for _, st := range w.starts {
				route := make([]int, len(st.route))
				for j, li := range st.route {
					route[j] = base + li
				}
				starts = append(starts, churnStart{at: st.at, bytes: st.bytes, route: route})
			}
		}
		// The reference takes starts in event order: by time, and at one
		// instant in the order playComponent schedules them (component by
		// component), which a stable sort of the concatenation keeps.
		order := make([]int, len(starts))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return starts[order[a]].at < starts[order[b]].at })
		sorted := make([]churnStart, len(starts))
		for i, o := range order {
			sorted[i] = starts[o]
		}
		ref := runReference(caps, sorted)
		want := make([]float64, len(starts))
		for i, o := range order {
			want[o] = ref[i]
		}

		s := sim.New()
		n := NewNetwork(s)
		done := make([][]float64, components)
		for c, w := range works {
			done[c] = playComponent(s, n, w)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		i := 0
		for c := range done {
			for j, got := range done[c] {
				if got != want[i] {
					t.Fatalf("seed %d: component %d flow %d completion = %v, reference = %v (diff %g)",
						baseSeed, c, j, got, want[i], got-want[i])
				}
				i++
			}
		}
	}
}

// TestCrossNetworkRoutePanics: a route may not couple links of two
// networks, since rate allocation is a fixpoint over one network.
func TestCrossNetworkRoutePanics(t *testing.T) {
	s := sim.New()
	n1, n2 := NewNetwork(s), NewNetwork(s)
	own := n1.AddLink("own", 1)
	foreign := n2.AddLink("x", 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("StartFlow accepted a foreign-network link")
		}
		if msg, ok := r.(string); !ok || msg != `fluid: route link "x" belongs to a different network` {
			t.Fatalf("panic %v", r)
		}
	}()
	n1.StartFlow(10, own, foreign)
}
