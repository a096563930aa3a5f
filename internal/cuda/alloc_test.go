package cuda

import (
	"testing"
)

// syncGraph instantiates an n-node graph of delays and cross-stream event
// waits (no copies, so a replay starts no flows): two capture streams
// alternate delays, and every other node is an empty fan-in node waiting
// on the other stream, so nodes have several dependents.
func syncGraph(t *testing.T, rt *Runtime, n int) *GraphExec {
	t.Helper()
	g := rt.NewGraph()
	g.StartGroup(0)
	a := g.CaptureStream(rt.Device(0), "a")
	b := g.CaptureStream(rt.Device(1), "b")
	for g.NodeCount() < n {
		a.Delay(1e-6)
		if g.NodeCount()+2 <= n {
			b.WaitEvent(a.RecordEvent())
			b.Delay(2e-6)
		}
	}
	g.End()
	if g.NodeCount() != n {
		t.Fatalf("built %d nodes, want %d", g.NodeCount(), n)
	}
	x, err := g.Instantiate(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestGraphReplayAllocsIndependentOfNodeCount checks that launching and
// draining a replay allocates O(1) objects: a 64-node graph costs what a
// 2-node one does.
func TestGraphReplayAllocsIndependentOfNodeCount(t *testing.T) {
	s, rt := newSynthetic(t)
	replay := func(x *GraphExec) float64 {
		launchAndDrain(t, s, x) // warm the event arena
		return testing.AllocsPerRun(50, func() {
			rep := x.Launch()
			rep.GroupDone(0)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !rep.Done().Fired() {
				t.Fatal("replay did not complete")
			}
		})
	}
	small, large := replay(syncGraph(t, rt, 2)), replay(syncGraph(t, rt, 64))
	if large != small {
		t.Fatalf("replay allocates %.1f objects at 64 nodes, %.1f at 2; want equal", large, small)
	}
}

// TestEagerCopyAllocs checks that an eager MemcpyPeerAsync, run to
// completion, allocates at most its operation record and its flow.
func TestEagerCopyAllocs(t *testing.T) {
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	dst := rt.Device(1)
	copyAndDrain := func() {
		sig := st.MemcpyPeerAsync(dst, 1000)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !sig.Fired() || sig.Err() != nil {
			t.Fatalf("copy did not complete: %v", sig.Err())
		}
	}
	copyAndDrain() // warm the event arena and the link's active set
	if allocs := testing.AllocsPerRun(100, copyAndDrain); allocs > 2 {
		t.Fatalf("eager copy allocates %.1f objects, want <= 2 (record + flow)", allocs)
	}
}
