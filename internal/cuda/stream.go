package cuda

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Stream is an in-order execution queue on one device. Operations start
// when the previous operation on the stream has completed; independent
// streams proceed concurrently subject to link contention.
//
// A stream created by Graph.CaptureStream is in capture mode: operations
// are recorded as graph nodes instead of executing, and the signals they
// return are inert placeholders that never fire (completion is observed
// on the replay, not at capture time). Graph.End returns the stream to
// normal execution.
type Stream struct {
	dev  *Device
	name string
	// tail is the completion of the last enqueued operation; nil until
	// the first one, while the stream is idle since creation.
	tail *sim.Signal

	// graph is non-nil while the stream captures into a transfer graph;
	// capTail is the ID of the stream's most recent captured node (-1
	// when none yet).
	graph   *Graph
	capTail int
}

// Capturing reports whether the stream is in graph-capture mode.
func (s *Stream) Capturing() bool { return s.graph != nil }

// captureNode appends a node in stream order: it depends on the stream's
// previous captured node plus any extra dependencies, and becomes the new
// stream tail. The returned inert signal stands in for the operation's
// completion (it never fires; replays expose real completion).
func (s *Stream) captureNode(n graphNode, extraDeps ...int) *sim.Signal {
	g := s.graph
	n.depLo = int32(len(g.deps))
	if s.capTail >= 0 {
		g.deps = append(g.deps, int32(s.capTail))
	}
	for _, d := range extraDeps {
		if d >= 0 {
			g.deps = append(g.deps, int32(d))
		}
	}
	n.depHi = int32(len(g.deps))
	sortDeps(g.deps[n.depLo:n.depHi])
	n.dev = s.dev
	s.capTail = g.addNode(n)
	return s.dev.rt.sim.NewSignal()
}

// sortDeps orders a (tiny) dependency list ascending; graph child and
// dependency tables are always kept in sorted node-ID order so traversal
// is deterministic.
func sortDeps(deps []int32) {
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && deps[j] < deps[j-1]; j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
}

// NewStream creates an idle stream on the device. Its first operation
// starts at the instant it is enqueued, exactly like one enqueued behind
// already-completed work.
func (d *Device) NewStream(name string) *Stream {
	return &Stream{dev: d, name: name}
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// Name returns the diagnostic name given at creation.
func (s *Stream) Name() string { return s.name }

// Stages of a stream operation, passed as its handler argument.
const (
	opStart  = iota // the stream reached the operation
	opEngine        // copy: an engine is held; pay the route latency
	opFlow          // copy: latency paid; start the flow
	opCopied        // copy: the flow completed
	opFire          // delay elapsed or awaited event fired
)

// streamOp is what every operation enqueued on a stream shares: the
// completion signal the enqueue call returns, embedded. Each kind of
// operation is one record embedding it and the handler of every stage of
// its life, so enqueueing allocates that record and, for a copy, the flow
// it starts. References an operation no longer needs are dropped when it
// completes, so a caller holding its signal keeps only the record alive.
type streamOp struct {
	done sim.Signal
	dev  *Device
}

// copyOp moves bytes over a route, holding one of the device's engines.
type copyOp struct {
	streamOp
	links []*fluid.Link
	lat   float64 // route latency
	bytes float64
	on    *sim.Signal // the flow's completion
	sem   *engineSem  // the engines it holds or waits for (nil = uncapped)
}

// delayOp occupies the stream for a fixed time.
type delayOp struct {
	streamOp
	dur float64
}

// waitOp waits for an event recorded on another stream.
type waitOp struct {
	streamOp
	on *sim.Signal
}

// enqueue appends op, whose handler is h; it starts once the stream's
// previous operation has completed.
func (s *Stream) enqueue(op *streamOp, h sim.Handler) *sim.Signal {
	sm := s.dev.rt.sim
	op.done.Init(sm)
	op.dev = s.dev
	prev := s.tail
	s.tail = &op.done
	if prev == nil {
		sm.ScheduleHandler(0, h, opStart)
	} else {
		prev.OnFireHandler(h, opStart)
	}
	return &op.done
}

// Handle advances the copy through its stages.
func (op *copyOp) Handle(stage int) {
	sm := op.dev.rt.sim
	switch stage {
	case opStart:
		op.sem = op.dev.engines
		op.sem.acquire(op, opEngine)
	case opEngine:
		sm.ScheduleHandler(op.lat, op, opFlow)
	case opFlow:
		op.on = op.dev.rt.node.Net.StartFlow(op.bytes, op.links...).Done()
		op.on.OnFireHandler(op, opCopied)
	default: // opCopied
		op.sem.release(sm)
		err := op.on.Err()
		op.links, op.on, op.sem = nil, nil, nil
		if err != nil {
			// A link on the route failed mid-copy; surface it so the
			// pipeline can classify and fail over.
			op.done.Fail(err)
			return
		}
		op.done.Fire()
	}
}

// Handle starts the delay, then completes it.
func (op *delayOp) Handle(stage int) {
	if stage == opStart {
		op.dev.rt.sim.ScheduleHandler(op.dur, op, opFire)
		return
	}
	op.done.Fire()
}

// Handle starts waiting on the event, then completes once it fired.
func (op *waitOp) Handle(stage int) {
	if stage == opStart {
		op.on.OnFireHandler(op, opFire)
		return
	}
	op.on = nil
	op.done.Fire()
}

// Tail returns a signal that fires when all currently enqueued work
// completes (equivalent to recording an event now). Capture-mode streams
// have no executable tail.
func (s *Stream) Tail() *sim.Signal {
	if s.graph != nil {
		panic("cuda: Tail on a capturing stream")
	}
	if s.tail == nil {
		// Idle since creation: hand out an already-fired signal.
		s.tail = s.dev.rt.sim.NewSignal()
		s.tail.Fire()
	}
	return s.tail
}

// Synchronize blocks the calling process until the stream drains.
// Synchronizing a capturing stream is a programming error (as in CUDA).
func (s *Stream) Synchronize(p *sim.Proc) error { return p.Wait(s.Tail()) }

// copyOnRoute enqueues a transfer of bytes over the route: the stream is
// occupied for the route's startup latency plus the flow duration, and
// the copy holds one of the device's copy engines while in flight.
func (s *Stream) copyOnRoute(r hw.Route, bytes float64) *sim.Signal {
	if s.graph != nil {
		return s.captureNode(graphNode{kind: nodeCopy, links: r.Links, lat: r.Latency, bytes: bytes})
	}
	op := &copyOp{links: r.Links, lat: r.Latency, bytes: bytes}
	return s.enqueue(&op.streamOp, op)
}

// CopyRouteAsync enqueues a copy over an explicit route — the escape
// hatch extensions use for transfers the standard memcpy entry points do
// not cover (e.g. RDMA writes across inter-node rails).
func (s *Stream) CopyRouteAsync(r hw.Route, bytes float64) *sim.Signal {
	return s.copyOnRoute(r, bytes)
}

// MemcpyPeerAsync copies bytes from the stream's device to dst over the
// direct NVLink. It returns the completion signal; enqueueing fails (the
// signal fails immediately) when no direct link exists.
func (s *Stream) MemcpyPeerAsync(dst *Device, bytes float64) *sim.Signal {
	r, ok := s.dev.rt.node.GPUToGPU(s.dev.id, dst.id)
	if !ok {
		bad := s.dev.rt.sim.NewSignal()
		bad.Fail(fmt.Errorf("cuda: no peer link %d->%d", s.dev.id, dst.id))
		return bad
	}
	return s.copyOnRoute(r, bytes)
}

// MemcpyToHostAsync copies bytes from the stream's device into host memory
// of the given NUMA domain.
func (s *Stream) MemcpyToHostAsync(numa int, bytes float64) *sim.Signal {
	return s.copyOnRoute(s.dev.rt.node.GPUToHost(s.dev.id, numa), bytes)
}

// MemcpyFromHostAsync copies bytes from host memory of the given NUMA
// domain into the stream's device.
func (s *Stream) MemcpyFromHostAsync(numa int, bytes float64) *sim.Signal {
	return s.copyOnRoute(s.dev.rt.node.HostToGPU(numa, s.dev.id), bytes)
}

// Delay occupies the stream for a fixed duration. It models fixed
// per-operation overheads (kernel launches, synchronization costs)
// inserted explicitly by higher layers.
func (s *Stream) Delay(d float64) *sim.Signal {
	if s.graph != nil {
		return s.captureNode(graphNode{kind: nodeDelay, lat: d})
	}
	op := &delayOp{dur: d}
	return s.enqueue(&op.streamOp, op)
}

// Event marks a point in a stream's execution. It is a small value:
// recording one allocates nothing. An event recorded on a capturing
// stream identifies a graph node instead of carrying a live signal; it
// can only be waited on by streams capturing into the same graph.
type Event struct {
	sig *sim.Signal
	// graph/node identify a captured event (sig is nil). node is -1 when
	// the capturing stream had no work yet — such an event is trivially
	// complete, like recording on an idle stream.
	graph *Graph
	node  int
}

// Fired reports whether the event has completed. Captured events never
// fire at capture time.
func (e Event) Fired() bool { return e.sig != nil && e.sig.Fired() }

// Signal exposes the underlying completion signal (nil for captured
// events, whose completion is observable only on a replay).
func (e Event) Signal() *sim.Signal { return e.sig }

// RecordEvent captures the stream's current tail: the event fires when all
// previously enqueued work completes. On a capturing stream it marks the
// current capture tail node.
func (s *Stream) RecordEvent() Event {
	if s.graph != nil {
		return Event{graph: s.graph, node: s.capTail}
	}
	return Event{sig: s.Tail()}
}

// WaitEvent makes subsequent operations on the stream wait for the event
// (cudaStreamWaitEvent). The wait itself consumes no stream time. During
// capture the wait materializes an empty node depending on both the
// stream tail and the event's node, making the cross-stream edge part of
// the captured topology.
func (s *Stream) WaitEvent(e Event) {
	if s.graph != nil {
		if e.graph != s.graph {
			panic("cuda: WaitEvent during capture on an event not captured in the same graph")
		}
		s.captureNode(graphNode{kind: nodeEmpty}, e.node)
		return
	}
	if e.sig == nil {
		panic("cuda: WaitEvent on a captured event outside its graph's capture")
	}
	op := &waitOp{on: e.sig}
	s.enqueue(&op.streamOp, op)
}
