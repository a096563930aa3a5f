package cuda

// Transfer graphs: the simulated analogue of CUDA graphs
// (cudaStreamBeginCapture / cudaGraphInstantiate / cudaGraphLaunch /
// cudaGraphExecUpdate). A Graph captures the stream-ordered DAG of
// operations issued on capture-mode streams — copies, fixed delays, and
// event synchronization — into an immutable node topology. Instantiating
// the graph pays the schedule-construction cost once and yields a
// GraphExec whose Launch enqueues the whole DAG with a single O(1) call:
// node fan-out happens inside simulator events, so per-launch host work
// does not grow with the node count, and the modeled per-operation
// launch/synchronization overheads of eager execution are replaced by one
// launch overhead per replay.
//
// Capture rules (mirroring CUDA's):
//   - Operations on a capturing stream become nodes depending on the
//     stream's previous node (stream order).
//   - RecordEvent marks the stream's current capture tail; WaitEvent on a
//     captured event materializes an empty node depending on both the
//     stream tail and the event's node, so cross-stream edges are exact.
//   - Capture-mode streams cannot be synchronized or mixed with captured
//     events from other graphs; both are programming errors and panic.
//
// Parameter updates (GraphExec.UpdateBytes, cudaGraphExecUpdate-style)
// patch copy byte counts in place without re-instantiation. Updates are
// copy-on-write: a Launch snapshots the current parameter set by
// reference, so patching between overlapping replays never corrupts an
// in-flight one. Link re-rating needs no patching at all — copy nodes
// start fluid flows at execution time, so a replay always sees live link
// capacities.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// graphNodeKind classifies graph nodes.
type graphNodeKind uint8

const (
	// nodeCopy transfers bytes over a fixed route, holding a copy engine.
	nodeCopy graphNodeKind = iota
	// nodeDelay occupies virtual time without moving bytes.
	nodeDelay
	// nodeEmpty is a synchronization-only node (event wait fan-in).
	nodeEmpty
)

// graphNode is one captured operation. Nodes are immutable after End;
// dependency IDs always reference earlier nodes, so the captured topology
// is a DAG by construction. Compiled graphs stay cached for the life of a
// context, so a node is kept small: its route is the link slice and
// latency, and its dependencies live in the graph's flat deps table.
type graphNode struct {
	kind  graphNodeKind
	group int32 // caller-assigned completion group, -1 if none
	// The node's dependencies are deps[depLo:depHi] of its graph, sorted
	// ascending, all < this node's ID.
	depLo, depHi int32
	links        []*fluid.Link // nodeCopy: route
	lat          float64       // nodeCopy: route latency; nodeDelay: duration
	dev          *Device       // nodeCopy: engine-owning device
	bytes        float64       // nodeCopy: default byte count (patchable per exec)
}

// Graph is a transfer DAG under construction (capturing) or finalized
// (ended). A finalized graph is immutable and can be instantiated any
// number of times.
type Graph struct {
	rt    *Runtime
	nodes []graphNode
	deps  []int32 // every node's dependencies, node after node
	// children lists, for each node, the nodes depending on it, in
	// ascending ID (a node listed twice depends on it twice):
	// children[childOff[i]:childOff[i+1]] for node i. Built by End.
	childOff []int32
	children []int32
	group    int // group tag applied to newly captured nodes
	groups   int // number of distinct groups (max tag + 1)
	ended    bool
	captured []*Stream // streams currently capturing into this graph
}

// nodeDeps returns node id's dependencies.
func (g *Graph) nodeDeps(id int) []int32 {
	n := &g.nodes[id]
	return g.deps[n.depLo:n.depHi]
}

// NewGraph starts an empty graph in capturing state.
func (rt *Runtime) NewGraph() *Graph {
	return &Graph{rt: rt, group: -1}
}

// NodeCount returns the number of captured nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Groups returns the number of completion groups tagged during capture.
func (g *Graph) Groups() int { return g.groups }

// StartGroup tags subsequently captured nodes with the given completion
// group (>= 0). Replays expose a per-group completion signal, which the
// pipeline compiler uses for per-path completion without walking nodes.
func (g *Graph) StartGroup(id int) {
	if g.ended {
		panic("cuda: StartGroup on an ended graph")
	}
	if id < 0 {
		panic(fmt.Sprintf("cuda: negative group id %d", id))
	}
	g.group = id
	if id+1 > g.groups {
		g.groups = id + 1
	}
}

// addNode appends a node and returns its ID.
func (g *Graph) addNode(n graphNode) int {
	if g.ended {
		panic("cuda: operation captured into an ended graph")
	}
	n.group = int32(g.group)
	id := len(g.nodes)
	g.nodes = append(g.nodes, n)
	return id
}

// CaptureStream creates a stream on dev whose operations are captured
// into g instead of executing (cudaStreamBeginCapture). The stream is
// released from capture mode by Graph.End; using it afterwards executes
// normally.
func (g *Graph) CaptureStream(dev *Device, name string) *Stream {
	if g.ended {
		panic("cuda: CaptureStream on an ended graph")
	}
	st := dev.NewStream(name)
	st.graph = g
	st.capTail = -1
	g.captured = append(g.captured, st)
	return st
}

// End finalizes the capture: the node topology becomes immutable and all
// capturing streams return to normal execution mode.
func (g *Graph) End() {
	if g.ended {
		return
	}
	g.ended = true
	for _, st := range g.captured {
		st.graph = nil
	}
	g.captured = nil
	g.childOff = make([]int32, len(g.nodes)+1)
	for _, d := range g.deps {
		g.childOff[d+1]++
	}
	for i := 1; i < len(g.childOff); i++ {
		g.childOff[i] += g.childOff[i-1]
	}
	g.children = make([]int32, len(g.deps))
	next := append([]int32(nil), g.childOff[:len(g.nodes)]...)
	for i := range g.nodes {
		for _, d := range g.nodeDeps(i) {
			g.children[next[d]] = int32(i)
			next[d]++
		}
	}
}

// execParams is one immutable parameter set of a GraphExec. UpdateBytes
// replaces the whole set (copy-on-write); a Replay holds the set that was
// current at Launch, so in-flight replays are isolated from later patches.
type execParams struct {
	bytes    []float64 // per node; meaningful for nodeCopy only
	overhead float64   // sim-time cost of one Launch
}

// GraphExec is an instantiated graph: the executable form whose Launch
// replays the whole captured DAG. Instantiation is the expensive step
// (cudaGraphInstantiate bakes the schedule); replays are cheap.
type GraphExec struct {
	g      *Graph
	params atomic.Pointer[execParams]
	// groupSize[k] counts nodes in completion group k (computed once).
	groupSize []int
	launches  atomic.Int64
}

// Instantiate bakes the captured topology into an executable graph.
// launchOverhead is the simulated cost charged once per Launch — the
// single graph-launch latency that replaces eager execution's
// per-operation launch and synchronization overheads.
func (g *Graph) Instantiate(launchOverhead float64) (*GraphExec, error) {
	if !g.ended {
		return nil, fmt.Errorf("cuda: Instantiate before End (capture still open)")
	}
	if launchOverhead < 0 {
		return nil, fmt.Errorf("cuda: negative launch overhead %v", launchOverhead)
	}
	if len(g.nodes) == 0 {
		return nil, fmt.Errorf("cuda: Instantiate of an empty graph")
	}
	x := &GraphExec{g: g, groupSize: make([]int, g.groups)}
	p := &execParams{bytes: make([]float64, len(g.nodes)), overhead: launchOverhead}
	for i := range g.nodes {
		p.bytes[i] = g.nodes[i].bytes
		if grp := g.nodes[i].group; grp >= 0 {
			x.groupSize[grp]++
		}
	}
	x.params.Store(p)
	return x, nil
}

// Graph returns the topology this exec was instantiated from.
func (x *GraphExec) Graph() *Graph { return x.g }

// Launches reports how many times this exec has been launched.
func (x *GraphExec) Launches() int64 { return x.launches.Load() }

// LaunchOverhead returns the current per-launch simulated cost.
func (x *GraphExec) LaunchOverhead() float64 { return x.params.Load().overhead }

// NodeBytes returns the current byte parameter of a copy node.
func (x *GraphExec) NodeBytes(node int) float64 { return x.params.Load().bytes[node] }

// UpdateBytes patches the byte counts of copy nodes in place
// (cudaGraphExecUpdate): nodes[i] receives bytes[i]. The topology is
// untouched, so no re-instantiation happens; replays launched before the
// update keep the parameters they started with.
func (x *GraphExec) UpdateBytes(nodes []int, bytes []float64) error {
	if len(nodes) != len(bytes) {
		return fmt.Errorf("cuda: UpdateBytes got %d nodes but %d byte counts", len(nodes), len(bytes))
	}
	old := x.params.Load()
	next := &execParams{bytes: append([]float64(nil), old.bytes...), overhead: old.overhead}
	for i, id := range nodes {
		if id < 0 || id >= len(x.g.nodes) {
			return fmt.Errorf("cuda: UpdateBytes node %d out of range [0,%d)", id, len(x.g.nodes))
		}
		if x.g.nodes[id].kind != nodeCopy {
			return fmt.Errorf("cuda: UpdateBytes node %d is not a copy node", id)
		}
		if bytes[i] < 0 {
			return fmt.Errorf("cuda: UpdateBytes node %d negative bytes %v", id, bytes[i])
		}
		next.bytes[id] = bytes[i]
	}
	x.params.Store(next)
	return nil
}

// SetLaunchOverhead patches the per-launch simulated cost in place.
func (x *GraphExec) SetLaunchOverhead(d float64) error {
	if d < 0 {
		return fmt.Errorf("cuda: negative launch overhead %v", d)
	}
	old := x.params.Load()
	next := &execParams{bytes: old.bytes, overhead: d}
	x.params.Store(next)
	return nil
}

// Replay is one in-flight launch of a GraphExec. Its completion signal
// fires when every node has completed, carrying the first node error if
// any node failed (a failed copy does not stop dependent nodes, matching
// eager stream semantics where a stream keeps executing past a failed
// operation).
//
// A replay is one record: its per-node state lives in one slice, and the
// replay is the handler of every node event. Node completions are not
// sim.Signals: firing a node schedules, in order, exactly the callbacks a
// signal would — the node's own completion, then one dependency gate per
// dependent node, in the order the dependents registered (ascending ID).
// The event sequence is the one per-node signals would produce, and a
// launch allocates O(1) objects whatever the node count.
type Replay struct {
	x      *GraphExec
	params *execParams
	done   sim.Signal

	remaining int
	firstErr  error
	// wired is set once the kickoff event has registered every
	// dependency; nodes firing before (empty roots) have no dependents
	// registered yet.
	wired bool

	nodes  []replayNode
	groups []replayGroup
}

// replayNode is one node's execution state.
type replayNode struct {
	pending int // dependencies not yet completed
	fired   bool
	err     error
	on      *sim.Signal // copy: the flow's completion
	sem     *engineSem  // copy: the engines it holds or waits for
}

// replayGroup tracks one capture group's completion.
type replayGroup struct {
	sig  sim.Signal
	rem  int
	err  error
	open bool // GroupDone handed sig out
}

// Replay handler arguments: node ID << replayShift | stage.
const replayShift = 3

const (
	rStart    = iota // kickoff after the launch overhead
	rComplete        // a node completed: replay and group bookkeeping
	rGate            // one dependency of a node completed
	rEngine          // copy: an engine is held; pay the route latency
	rFlow            // copy: latency paid; start the flow
	rCopied          // copy: the flow completed
	rFire            // delay elapsed, or zero-byte copy latency paid
)

// Launch replays the whole DAG: after the exec's launch overhead elapses,
// every root node starts and the topology unrolls inside simulator
// events. The call itself is O(1) in the node count — it snapshots the
// current parameter set by reference and schedules a single kickoff
// event.
func (x *GraphExec) Launch() *Replay {
	s := x.g.rt.sim
	rep := &Replay{
		x:         x,
		params:    x.params.Load(),
		remaining: len(x.g.nodes),
		groups:    make([]replayGroup, len(x.groupSize)),
	}
	rep.done.Init(s)
	for i, n := range x.groupSize {
		rep.groups[i].rem = n
	}
	x.launches.Add(1)
	if tr := x.g.rt.tr; tr != nil {
		tr.Instant("graph", "graph", "launch",
			obs.KVi("nodes", int64(len(x.g.nodes))),
			obs.KVf("overhead_s", rep.params.overhead),
			obs.KVi("launches", x.launches.Load()))
	}
	s.ScheduleHandler(rep.params.overhead, rep, rStart)
	return rep
}

// Done returns the whole-replay completion signal.
func (r *Replay) Done() *sim.Signal { return &r.done }

// GroupDone returns the completion signal for one capture group: it fires
// when every node tagged with the group has completed, failing with the
// group's first node error. Call before the simulation drains the replay.
func (r *Replay) GroupDone(group int) *sim.Signal {
	if group < 0 || group >= len(r.groups) {
		panic(fmt.Sprintf("cuda: group %d out of range [0,%d)", group, len(r.groups)))
	}
	g := &r.groups[group]
	if !g.open {
		g.open = true
		g.sig.Init(r.x.g.rt.sim)
		if g.rem == 0 {
			r.settleGroup(group)
		}
	}
	return &g.sig
}

// settleGroup fires a group signal once its nodes have drained.
func (r *Replay) settleGroup(group int) {
	g := &r.groups[group]
	if !g.open {
		return
	}
	if g.err != nil {
		g.sig.Fail(g.err)
		return
	}
	g.sig.Fire()
}

// Handle runs one replay event; arg is node ID << replayShift | stage.
func (r *Replay) Handle(arg int) {
	id, stage := arg>>replayShift, arg&(1<<replayShift-1)
	s := r.x.g.rt.sim
	switch stage {
	case rStart:
		r.start()
	case rComplete:
		r.nodeComplete(id, r.nodes[id].err)
	case rGate:
		n := &r.nodes[id]
		n.pending--
		if n.pending == 0 {
			r.runNode(id)
		}
	case rEngine:
		s.ScheduleHandler(r.x.g.nodes[id].lat, r, id<<replayShift|rFlow)
	case rFlow:
		gn := &r.x.g.nodes[id]
		n := &r.nodes[id]
		n.on = r.x.g.rt.node.Net.StartFlow(r.params.bytes[id], gn.links...).Done()
		n.on.OnFireHandler(r, id<<replayShift|rCopied)
	case rCopied:
		n := &r.nodes[id]
		n.sem.release(s)
		err := n.on.Err()
		n.on, n.sem = nil, nil
		r.fire(id, err)
	default: // rFire
		r.fire(id, nil)
	}
}

// start wires and kicks off the DAG. It runs inside a simulator event, so
// the O(nodes) fan-out costs no simulated time and no caller time.
func (r *Replay) start() {
	g := r.x.g
	s := g.rt.sim
	r.nodes = make([]replayNode, len(g.nodes))
	for id := range g.nodes {
		deps := g.nodeDeps(id)
		if len(deps) == 0 {
			r.runNode(id)
			continue
		}
		// Dependency gate: run when every dep has completed, regardless of
		// dep errors (matching eager streams, which execute the next
		// operation after a failed one; errors surface via completion).
		// A dep that already fired gates at once, like a waiter
		// registered on a fired signal.
		r.nodes[id].pending = len(deps)
		for _, d := range deps {
			if r.nodes[d].fired {
				s.ScheduleHandler(0, r, id<<replayShift|rGate)
			}
		}
	}
	r.wired = true
}

// runNode executes one node at the current instant.
func (r *Replay) runNode(id int) {
	g := r.x.g
	n := &g.nodes[id]
	switch n.kind {
	case nodeCopy:
		if r.params.bytes[id] <= 0 {
			// A path patched down to zero bytes: the node degenerates to
			// its route latency with no flow started.
			g.rt.sim.ScheduleHandler(n.lat, r, id<<replayShift|rFire)
			return
		}
		rn := &r.nodes[id]
		rn.sem = n.dev.engines
		rn.sem.acquire(r, id<<replayShift|rEngine)
	case nodeDelay:
		g.rt.sim.ScheduleHandler(n.lat, r, id<<replayShift|rFire)
	default: // nodeEmpty
		r.fire(id, nil)
	}
}

// fire completes a node: it schedules the node's completion bookkeeping,
// then the dependency gate of each dependent, in registration order.
func (r *Replay) fire(id int, err error) {
	n := &r.nodes[id]
	n.fired, n.err = true, err
	s := r.x.g.rt.sim
	s.ScheduleHandler(0, r, id<<replayShift|rComplete)
	if !r.wired {
		return
	}
	g := r.x.g
	for _, c := range g.children[g.childOff[id]:g.childOff[id+1]] {
		s.ScheduleHandler(0, r, int(c)<<replayShift|rGate)
	}
}

// nodeComplete updates replay and group bookkeeping for one finished node.
func (r *Replay) nodeComplete(id int, err error) {
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	if grp := int(r.x.g.nodes[id].group); grp >= 0 {
		g := &r.groups[grp]
		if err != nil && g.err == nil {
			g.err = err
		}
		g.rem--
		if g.rem == 0 {
			r.settleGroup(grp)
		}
	}
	r.remaining--
	if r.remaining == 0 {
		// Every node and every dependency gate has run; the per-node
		// state is no longer needed by anyone holding the replay.
		r.nodes = nil
		if r.firstErr != nil {
			r.done.Fail(r.firstErr)
			return
		}
		r.done.Fire()
	}
}
