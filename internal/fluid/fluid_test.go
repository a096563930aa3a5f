package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestSingleFlowFullRate(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100) // 100 B/s
	f := n.StartFlow(500, l)
	var doneAt sim.Time = -1
	f.Done().OnFire(func() { doneAt = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, doneAt, 5.0, 1e-9, "completion time")
	almost(t, l.BytesCarried(), 500, 1e-6, "bytes carried")
	almost(t, l.BusyTime(), 5.0, 1e-9, "busy time")
}

func TestTwoFlowsShareLink(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100)
	f1 := n.StartFlow(500, l)
	f2 := n.StartFlow(500, l)
	var t1, t2 sim.Time
	f1.Done().OnFire(func() { t1 = s.Now() })
	f2.Done().OnFire(func() { t2 = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share 50 B/s, finish together at t=10.
	almost(t, t1, 10.0, 1e-9, "flow1")
	almost(t, t2, 10.0, 1e-9, "flow2")
}

func TestLateJoinerSlowsExisting(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100)
	var t1, t2 sim.Time
	f1 := n.StartFlow(1000, l)
	f1.Done().OnFire(func() { t1 = s.Now() })
	s.Schedule(5, func() {
		f2 := n.StartFlow(250, l)
		f2.Done().OnFire(func() { t2 = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// f1: 500 B in first 5 s at 100 B/s, then 50 B/s shared. f2 needs 250 B
	// at 50 B/s = 5 s → finishes at t=10. f1 has 500-250=250 left at t=10,
	// then full rate: 2.5 s more → t=12.5.
	almost(t, t2, 10.0, 1e-9, "joiner")
	almost(t, t1, 12.5, 1e-9, "original")
}

func TestMultiLinkRouteBottleneck(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	fast := n.AddLink("fast", 1000)
	slow := n.AddLink("slow", 100)
	f := n.StartFlow(200, fast, slow)
	var done sim.Time
	f.Done().OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 2.0, 1e-9, "bottleneck-limited time")
	almost(t, fast.BytesCarried(), 200, 1e-6, "fast link bytes")
	almost(t, slow.BytesCarried(), 200, 1e-6, "slow link bytes")
}

func TestMaxMinClassicTriangle(t *testing.T) {
	// Classic example: links A (cap 100) and B (cap 100).
	// Flow1 uses A only, Flow2 uses B only, Flow3 uses A and B.
	// Max-min: each link splits between two flows -> everyone gets 50.
	s := sim.New()
	n := NewNetwork(s)
	a := n.AddLink("A", 100)
	b := n.AddLink("B", 100)
	f1 := n.StartFlow(1e9, a)
	f2 := n.StartFlow(1e9, b)
	f3 := n.StartFlow(1e9, a, b)
	s.Schedule(0.001, func() {
		almost(t, f1.Rate(), 50, 1e-6, "f1 rate")
		almost(t, f2.Rate(), 50, 1e-6, "f2 rate")
		almost(t, f3.Rate(), 50, 1e-6, "f3 rate")
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinUnevenBottleneck(t *testing.T) {
	// Link A cap 90 shared by f1 (A only) and f3 (A+B); link B cap 30
	// shared by f2 (B only) and f3. B is the tighter bottleneck:
	// f2 = f3 = 15; then f1 takes the rest of A = 75.
	s := sim.New()
	n := NewNetwork(s)
	a := n.AddLink("A", 90)
	b := n.AddLink("B", 30)
	f1 := n.StartFlow(1e9, a)
	f2 := n.StartFlow(1e9, b)
	f3 := n.StartFlow(1e9, a, b)
	s.Schedule(0.001, func() {
		almost(t, f2.Rate(), 15, 1e-6, "f2 rate")
		almost(t, f3.Rate(), 15, 1e-6, "f3 rate")
		almost(t, f1.Rate(), 75, 1e-6, "f1 rate")
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100)
	f := n.StartFlow(0, l)
	var done sim.Time = -1
	f.Done().OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 0, 0, "zero-byte completion")
}

func TestSequentialFlowsAccounting(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100)
	f1 := n.StartFlow(100, l)
	f1.Done().OnFire(func() {
		n.StartFlow(100, l)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, l.BytesCarried(), 200, 1e-6, "total bytes")
	almost(t, l.BusyTime(), 2.0, 1e-9, "busy time")
	almost(t, s.Now(), 2.0, 1e-9, "end time")
}

func TestProcessWaitsForFlow(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 10)
	var finished sim.Time
	s.Spawn("xfer", func(p *sim.Proc) {
		f := n.StartFlow(50, l)
		if err := p.Wait(f.Done()); err != nil {
			t.Errorf("wait: %v", err)
		}
		finished = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, finished, 5.0, 1e-9, "process completion")
}

func TestSharedMiddleResource(t *testing.T) {
	// Two disjoint paths that share one middle resource (like a host
	// memory channel): each flow capped to half the middle capacity.
	s := sim.New()
	n := NewNetwork(s)
	in1 := n.AddLink("in1", 1000)
	in2 := n.AddLink("in2", 1000)
	mem := n.AddLink("mem", 100)
	out1 := n.AddLink("out1", 1000)
	out2 := n.AddLink("out2", 1000)
	f1 := n.StartFlow(500, in1, mem, out1)
	f2 := n.StartFlow(500, in2, mem, out2)
	var t1, t2 sim.Time
	f1.Done().OnFire(func() { t1 = s.Now() })
	f2.Done().OnFire(func() { t2 = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, t1, 10.0, 1e-9, "f1 under memory contention")
	almost(t, t2, 10.0, 1e-9, "f2 under memory contention")
}

func TestRateAfterPeerFinishes(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	l := n.AddLink("L", 100)
	f1 := n.StartFlow(100, l) // finishes first under sharing
	f2 := n.StartFlow(300, l)
	_ = f1
	var t2 sim.Time
	f2.Done().OnFire(func() { t2 = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared at 50 B/s until f1 drains 100 B at t=2. f2 then has 200 B
	// left at 100 B/s → t=4.
	almost(t, t2, 4.0, 1e-9, "f2 completion after speedup")
}

// Property: total bytes carried by a single link equals the sum of flow
// sizes, and all flows complete, for arbitrary flow sets.
func TestQuickConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 40 {
			return true
		}
		s := sim.New()
		n := NewNetwork(s)
		l := n.AddLink("L", 123.5)
		var total float64
		completed := 0
		for _, sz := range sizes {
			b := float64(sz%5000) + 1
			total += b
			fl := n.StartFlow(b, l)
			fl.Done().OnFire(func() { completed++ })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if completed != len(sizes) {
			return false
		}
		return math.Abs(l.BytesCarried()-total) < 1e-3*total+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a batch of equal flows on one link completes at n*size/cap
// (perfect sharing wastes nothing).
func TestQuickEqualFlowsFinishTogether(t *testing.T) {
	f := func(count uint8, size uint16) bool {
		c := int(count%16) + 1
		b := float64(size%10000) + 100
		s := sim.New()
		n := NewNetwork(s)
		l := n.AddLink("L", 250)
		for i := 0; i < c; i++ {
			n.StartFlow(b, l)
		}
		if err := s.Run(); err != nil {
			return false
		}
		want := float64(c) * b / 250
		return math.Abs(s.Now()-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min rates never oversubscribe a link.
func TestQuickNoOversubscription(t *testing.T) {
	f := func(seed uint32) bool {
		s := sim.New()
		n := NewNetwork(s)
		nl := int(seed%4) + 2
		links := make([]*Link, nl)
		for i := range links {
			links[i] = n.AddLink("l", float64((seed>>uint(i))%100+10))
		}
		// A handful of flows over pseudo-random routes.
		x := seed
		for i := 0; i < 6; i++ {
			x = x*1664525 + 1013904223
			a := int(x % uint32(nl))
			x = x*1664525 + 1013904223
			b := int(x % uint32(nl))
			route := []*Link{links[a]}
			if b != a {
				route = append(route, links[b])
			}
			n.StartFlow(float64(x%9000)+500, route...)
		}
		ok := true
		check := func() {
			for _, l := range links {
				var sum float64
				for _, fl := range l.active {
					sum += fl.rate
				}
				if sum > l.capacity*(1+1e-9) {
					ok = false
				}
			}
		}
		check()
		s.Schedule(0.5, check)
		s.Schedule(5, check)
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFlowChurn(b *testing.B) {
	// Cost of starting/finishing flows with rate recomputation under a
	// realistic number of concurrent flows.
	s := sim.New()
	n := NewNetwork(s)
	links := make([]*Link, 8)
	for i := range links {
		links[i] = n.AddLink("l", 100)
	}
	done := 0
	var launch func(i int)
	launch = func(i int) {
		if done >= b.N {
			return
		}
		done++
		f := n.StartFlow(50, links[i%8], links[(i+3)%8])
		f.Done().OnFire(func() { launch(i + 1) })
	}
	b.ResetTimer()
	for i := 0; i < 6; i++ {
		launch(i)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestStartFlowAllocatesOnlyTheFlow checks that starting a flow and
// draining it allocates one object: the Flow, with its done signal and
// completion handler embedded.
func TestStartFlowAllocatesOnlyTheFlow(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	route := []*Link{n.AddLink("a", 100), n.AddLink("b", 50)}
	n.StartFlow(10, route...) // warm the event arena and active sets
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f := n.StartFlow(10, route...)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !f.Done().Fired() {
			t.Fatal("flow did not complete")
		}
	})
	if allocs != 1 {
		t.Fatalf("StartFlow + drain allocates %.1f objects, want 1", allocs)
	}
}
