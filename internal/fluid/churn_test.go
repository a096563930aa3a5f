package fluid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// This file pins the optimized re-rating path to a straightforward
// reference implementation of the same semantics: max-min progressive
// filling with links scanned in creation order and flows frozen in start
// (seq) order, completion deadlines recomputed only when a flow's rate
// changes. The reference keeps no event heap, no pools, and no scratch
// reuse — it is the specification the optimized Network must match
// bit-for-bit.

// refNet mirrors Network semantics on plain data. It fills the whole
// network at every change, where Network fills only the touched
// component, so the two agree bit for bit except in one case: disjoint
// components whose bottleneck shares lie within the 1e-9 relative marking
// tolerance without being equal, which refNet freezes together at the
// smaller share (TestNearTieComponentsKeepOwnShares). Randomized workloads
// never land in that band.
type refNet struct {
	caps      []float64 // link capacities
	residual  []float64
	unfrozen  []int
	mark      []int
	flows     []*refFlow // active, in start order
	now       float64
	settledAt float64
	carried   []float64 // per-link bytes carried
}

type refFlow struct {
	route     []int // link indices
	remaining float64
	rate      float64
	deadline  float64 // absolute completion time; valid when rate > 0
	frozen    bool
	newRate   float64
	doneAt    float64
}

func (rn *refNet) settle() {
	dt := rn.now - rn.settledAt
	if dt <= 0 {
		return
	}
	for _, f := range rn.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	for li := range rn.caps {
		var sum float64
		for _, f := range rn.flows {
			for _, l := range f.route {
				if l == li {
					sum += f.rate
				}
			}
		}
		rn.carried[li] += sum * dt
	}
	rn.settledAt = rn.now
}

func (rn *refNet) maxMinRates() {
	for li := range rn.caps {
		rn.residual[li] = rn.caps[li]
		rn.unfrozen[li] = 0
		rn.mark[li] = 0
	}
	for _, f := range rn.flows {
		f.frozen = false
		for _, l := range f.route {
			rn.unfrozen[l]++
		}
	}
	remaining := len(rn.flows)
	for round := 1; remaining > 0; round++ {
		share := math.Inf(1)
		for li := range rn.caps {
			if rn.unfrozen[li] == 0 {
				continue
			}
			if s := rn.residual[li] / float64(rn.unfrozen[li]); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			break
		}
		tol := share * 1e-9
		marked := 0
		for li := range rn.caps {
			if rn.unfrozen[li] == 0 {
				continue
			}
			if rn.residual[li]/float64(rn.unfrozen[li]) <= share+tol {
				rn.mark[li] = round
				marked++
			}
		}
		if marked == 0 {
			break
		}
		progressed := false
		for _, f := range rn.flows {
			if f.frozen {
				continue
			}
			hit := false
			for _, l := range f.route {
				if rn.mark[l] == round {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			f.frozen = true
			f.newRate = share
			remaining--
			progressed = true
			for _, l := range f.route {
				rn.residual[l] -= share
				if rn.residual[l] < 0 {
					rn.residual[l] = 0
				}
				rn.unfrozen[l]--
			}
		}
		if !progressed {
			break
		}
	}
	for _, f := range rn.flows {
		if !f.frozen {
			f.newRate = 0
		}
	}
}

func (rn *refNet) reallocate() {
	if len(rn.flows) == 0 {
		return
	}
	rn.maxMinRates()
	for _, f := range rn.flows {
		if f.newRate == f.rate {
			continue
		}
		f.rate = f.newRate
		if f.rate <= 0 {
			continue
		}
		f.deadline = rn.now + f.remaining/f.rate
	}
}

// churnStart is one scripted StartFlow call.
type churnStart struct {
	at    float64
	bytes float64
	route []int
}

// runReference executes the scripted workload on the reference network and
// returns per-start completion times.
func runReference(caps []float64, starts []churnStart) []float64 {
	rn := &refNet{
		caps:     caps,
		residual: make([]float64, len(caps)),
		unfrozen: make([]int, len(caps)),
		mark:     make([]int, len(caps)),
		carried:  make([]float64, len(caps)),
	}
	doneAt := make([]float64, len(starts))
	started := make([]*refFlow, len(starts))
	si := 0
	for si < len(starts) || len(rn.flows) > 0 {
		// Next event: earliest pending start or flow deadline. Starts win
		// ties (their events were scheduled first, so they have lower seq).
		tNext := math.Inf(1)
		isStart := false
		if si < len(starts) {
			tNext = starts[si].at
			isStart = true
		}
		var completing *refFlow
		for _, f := range rn.flows {
			if f.rate > 0 && f.deadline < tNext {
				tNext = f.deadline
				isStart = false
				completing = f
			}
		}
		rn.now = tNext
		rn.settle()
		if isStart {
			st := starts[si]
			f := &refFlow{route: st.route, remaining: st.bytes}
			started[si] = f
			rn.flows = append(rn.flows, f)
			rn.reallocate()
			si++
			continue
		}
		// Completion, mirroring Network.finish.
		f := completing
		if f.remaining > 1e-6*math.Max(1, f.rate) {
			if f.rate > 0 {
				f.deadline = rn.now + f.remaining/f.rate
			}
			continue
		}
		f.remaining = 0
		f.rate = 0
		f.doneAt = rn.now
		for i, g := range rn.flows {
			if g == f {
				rn.flows = append(rn.flows[:i], rn.flows[i+1:]...)
				break
			}
		}
		rn.reallocate()
	}
	for i, f := range started {
		doneAt[i] = f.doneAt
	}
	return doneAt
}

// TestChurnMatchesReference runs a randomized (seeded) start/finish churn
// workload through the optimized Network and the reference implementation
// and requires bit-identical completion times, plus byte conservation and
// BusyTime/BytesCarried invariants on the real network.
func TestChurnMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		caps := make([]float64, 6)
		for i := range caps {
			caps[i] = 50 + rng.Float64()*500
		}
		const flows = 120
		starts := make([]churnStart, flows)
		at := 0.0
		for i := range starts {
			// Bursts: ~25% of flows start at the same instant as their
			// predecessor, exercising same-time determinism.
			if i > 0 && rng.Float64() < 0.25 {
				// keep at unchanged
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
			starts[i] = churnStart{
				at: at,
				// Random fractional sizes make exact completion-time ties
				// (whose event order the reference does not model)
				// vanishingly unlikely.
				bytes: 1 + rng.Float64()*5e4,
				route: route,
			}
		}

		want := runReference(caps, starts)

		s := sim.New()
		n := NewNetwork(s)
		links := make([]*Link, len(caps))
		for i := range caps {
			links[i] = n.AddLink("l", caps[i])
		}
		got := make([]float64, flows)
		var totalBytes float64
		for i, st := range starts {
			i, st := i, st
			totalBytes += st.bytes
			s.At(st.at, func() {
				route := make([]*Link, len(st.route))
				for j, li := range st.route {
					route[j] = links[li]
				}
				f := n.StartFlow(st.bytes, route...)
				f.Done().OnFire(func() { got[i] = s.Now() })
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: flow %d completion = %v, reference = %v (diff %g)",
					seed, i, got[i], want[i], got[i]-want[i])
			}
		}

		// Conservation: each link carried the bytes of the flows routed
		// over it (every flow ran to completion).
		perLink := make([]float64, len(caps))
		for _, st := range starts {
			for _, li := range st.route {
				perLink[li] += st.bytes
			}
		}
		end := s.Now()
		for i, l := range links {
			if math.Abs(l.BytesCarried()-perLink[i]) > 1e-6*perLink[i]+1e-6 {
				t.Fatalf("seed %d: link %d carried %v, want %v", seed, i, l.BytesCarried(), perLink[i])
			}
			if l.BusyTime() > end+1e-9 {
				t.Fatalf("seed %d: link %d busy %v exceeds elapsed %v", seed, i, l.BusyTime(), end)
			}
			// A link cannot carry bytes faster than capacity while busy.
			if l.BytesCarried() > l.Capacity()*l.BusyTime()*(1+1e-9) {
				t.Fatalf("seed %d: link %d carried %v in busy %v at cap %v",
					seed, i, l.BytesCarried(), l.BusyTime(), l.Capacity())
			}
		}
		if n.ActiveFlowCount() != 0 {
			t.Fatalf("seed %d: %d flows still active", seed, n.ActiveFlowCount())
		}
	}
}

// TestSameInstantStartsDeterministic starts identical flows at the same
// virtual instant — where the old implementation's freeze order fell back
// to map iteration order — and checks repeated runs produce identical
// completion-time vectors.
func TestSameInstantStartsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := sim.New()
		n := NewNetwork(s)
		a := n.AddLink("a", 100)
		b := n.AddLink("b", 70)
		c := n.AddLink("c", 130)
		out := make([]float64, 12)
		s.Schedule(1, func() {
			for i := 0; i < 12; i++ {
				i := i
				var f *Flow
				switch i % 3 {
				case 0:
					f = n.StartFlow(1000, a, b)
				case 1:
					f = n.StartFlow(1000, b, c)
				default:
					f = n.StartFlow(1000, a, c)
				}
				f.Done().OnFire(func() { out[i] = s.Now() })
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: flow %d completed at %v then %v", trial, i, first[i], again[i])
			}
		}
	}
	// Seq numbers must reflect start order even at one instant.
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("l", 10)
	f1 := n.StartFlow(5, l)
	f2 := n.StartFlow(5, l)
	if f1.Seq() >= f2.Seq() {
		t.Fatalf("seq not monotonic: %d then %d", f1.Seq(), f2.Seq())
	}
}

// TestReallocateKeepsUnchangedRates checks that a flow on disjoint links
// keeps its pending completion event (rate unchanged) when unrelated flows
// start and finish.
func TestReallocateKeepsUnchangedRates(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l1 := n.AddLink("l1", 100)
	l2 := n.AddLink("l2", 100)
	f := n.StartFlow(1000, l1) // 10 s alone on l1
	var doneAt float64
	f.Done().OnFire(func() { doneAt = s.Now() })
	// Unrelated churn on l2 must not disturb f's completion.
	for i := 0; i < 5; i++ {
		s.Schedule(float64(i), func() { n.StartFlow(10, l2) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 10.0 {
		t.Fatalf("completion at %v, want exactly 10.0", doneAt)
	}
	if got := f.Rate(); got != 0 {
		t.Fatalf("rate after completion = %v", got)
	}
}

// TestNearTieComponentsKeepOwnShares pins the one case where re-rating
// only the touched component differs from a network-wide fill: two
// disjoint one-flow links whose capacities differ by less than the 1e-9
// marking tolerance. A network-wide fill marked both links in one round
// and froze both flows at the smaller capacity; each flow now gets its
// own link's capacity exactly.
func TestNearTieComponentsKeepOwnShares(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	const c = 100.0
	a := n.AddLink("a", c)
	b := n.AddLink("b", c*(1+1e-10))
	if a.Capacity() == b.Capacity() {
		t.Fatal("capacities round to the same float")
	}
	fa := n.StartFlow(1e6, a)
	fb := n.StartFlow(1e6, b)
	if fa.Rate() != a.Capacity() || fb.Rate() != b.Capacity() {
		t.Fatalf("rates %v, %v; want each link's capacity %v, %v",
			fa.Rate(), fb.Rate(), a.Capacity(), b.Capacity())
	}
}
