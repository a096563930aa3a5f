package fluid

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// Sharded-vs-sequential bit-identity over the churn reference workload.
//
// The unit of simulation is the connected component: each component is
// its own Network, so its settlement points and progressive-filling
// fixpoints are a pure function of its own event schedule — they do not
// depend on which simulator queue the component's events interleave on,
// or on how many OS threads drive the queues. These tests pin that: the
// same 8-component churn workload must produce byte-identical completion
// times and link statistics on a plain sequential simulator and on
// clusters of every shard count (1, 2, 8) and worker count.

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

// shardRunResult captures every float observable the workload produces.
type shardRunResult struct {
	doneAt  [][]float64 // per component, per start: completion time
	carried [][]float64 // per component, per link: bytes carried
	busy    [][]float64 // per component, per link: busy time
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

func collectStats(res *shardRunResult, nets []*Network) {
	for _, n := range nets {
		var carried, busy []float64
		for _, l := range n.Links() {
			carried = append(carried, l.BytesCarried())
			busy = append(busy, l.BusyTime())
		}
		res.carried = append(res.carried, carried)
		res.busy = append(res.busy, busy)
	}
}

// runSequential plays every component on one plain Simulator (the
// engine's default mode — all component queues interleaved in one heap).
func runSequential(t *testing.T, works []componentWorkload) shardRunResult {
	t.Helper()
	s := sim.New()
	var res shardRunResult
	nets := make([]*Network, len(works))
	for c, w := range works {
		nets[c] = NewNetwork(s)
		res.doneAt = append(res.doneAt, playComponent(s, nets[c], w))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	collectStats(&res, nets)
	return res
}

// runSharded plays the components across a cluster, component c on shard
// c mod shards, and the cluster's epochs on the given worker count.
func runSharded(t *testing.T, works []componentWorkload, shards, workers int) shardRunResult {
	t.Helper()
	c := sim.NewCluster(shards, workers)
	defer c.Close()
	var res shardRunResult
	nets := make([]*Network, len(works))
	for ci, w := range works {
		shardSim := c.Shard(ci % shards)
		nets[ci] = NewNetwork(shardSim)
		res.doneAt = append(res.doneAt, playComponent(shardSim, nets[ci], w))
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	collectStats(&res, nets)
	return res
}

func requireIdentical(t *testing.T, label string, want, got shardRunResult) {
	t.Helper()
	check := func(kind string, a, b [][]float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s component count %d != %d", label, kind, len(b), len(a))
		}
		for c := range a {
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

// TestShardedChurnIdentity is the tentpole acceptance test: an
// 8-component churn workload produces byte-identical observables on the
// sequential engine and on clusters at shard counts 1, 2, and 8, for
// every worker count, across seeds.
func TestShardedChurnIdentity(t *testing.T) {
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
		want := runSequential(t, works)
		for _, shards := range []int{1, 2, 8} {
			for _, workers := range []int{1, 2, 8} {
				got := runSharded(t, works, shards, workers)
				label := fmt.Sprintf("seed %d shards %d workers %d", baseSeed, shards, workers)
				requireIdentical(t, label, want, got)
			}
		}
	}
}

// TestShardedChurnMatchesReference closes the loop to the original churn
// reference: an 8-shard parallel run of a single-component workload must
// still match the plain-data reference implementation bit-for-bit.
func TestShardedChurnMatchesReference(t *testing.T) {
	w := genComponentWorkload(7, 60)
	want := runReference(w.caps, w.starts)
	got := runSharded(t, []componentWorkload{w}, 8, 4)
	for i := range want {
		if got.doneAt[0][i] != want[i] {
			t.Fatalf("flow %d completion = %v, reference = %v", i, got.doneAt[0][i], want[i])
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
