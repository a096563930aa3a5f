// Package fluid models data movement as fluid flows over a capacitated
// link network with max-min fair bandwidth sharing.
//
// Each Flow transfers a byte count over a route (an ordered set of Links).
// At any instant every active flow receives a rate computed by progressive
// filling (max-min fairness): link capacity is divided evenly among the
// flows crossing it, flows bottlenecked elsewhere release their unused
// share, and the process repeats until all flows are frozen. Whenever a
// flow starts, finishes or fails, or a link's capacity changes, remaining
// bytes are settled at the old rates and the affected rates and completion
// times are recomputed.
//
// This is the standard fluid approximation used by network and interconnect
// simulators: it captures bandwidth contention (the phenomenon the paper's
// evaluation highlights for host-staged bidirectional transfers) without
// per-packet simulation.
//
// Re-rating is scoped to the dynamic component a change touches: the links
// and flows reachable from the changed flow's route (or the changed link)
// through currently active flows. Flows in different components share no
// link, so filling the touched component alone yields the rates a
// network-wide fill would, bit for bit, and every other flow keeps its rate
// and its pending completion event. The one exception is degenerate: when
// two disjoint components' bottleneck shares lie within the 1e-9 relative
// marking tolerance without being equal, a network-wide fill froze both at
// the smaller share, whereas each component now gets its own. Settlement
// (remaining -= rate·dt) stays network-wide: it runs for every flow at every
// change instant, and those per-instant splits fix the floating-point bits
// of every completion time, so settling lazily per component would move
// them.
//
// The re-rating path is the simulator's hottest loop, so it is written to
// be allocation-free in steady state: active-flow sets are slices with
// order-preserving (network) and swap (link) removal, component collection
// and progressive filling work on scratch fields embedded in Link and Flow
// rather than per-call maps, a component's flows are taken in monotonic
// start-sequence order (deterministic even for same-instant starts), and a
// flow's completion event is only canceled and rescheduled when its rate
// actually changed.
package fluid

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// ErrLinkDown marks flow failures caused by a failed link. Callers classify
// transfer errors with errors.Is(err, ErrLinkDown); the wrapped message
// carries the link name.
var ErrLinkDown = errors.New("fluid: link down")

// Link is a unidirectional capacitated resource. Two directions of a
// physical cable are two Links. A shared resource such as a host memory
// channel is also a Link that multiple routes traverse.
type Link struct {
	name     string
	base     float64 // nominal capacity, bytes per second
	scale    float64 // health factor applied to base (1 = healthy)
	capacity float64 // effective capacity = base × scale
	down     bool    // failed: active flows were aborted, new flows fail fast
	net      *Network
	active   []*Flow // flows currently crossing the link

	// accounting
	bytesCarried float64
	busy         float64 // integrated seconds with >=1 active flow

	// re-rating scratch, valid only inside a reach/rerate sequence.
	visit     uint64  // equals net.stamp while in the collected component
	residual  float64 // capacity not yet claimed by frozen flows
	unfrozen  int     // active flows not yet frozen
	markRound int     // round at which the link was last a bottleneck

	idx int // position in net.links; union-find key for Components
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's effective capacity (nominal × health scale)
// in bytes per second. A failed link keeps reporting its effective capacity
// — planners must stay able to parameterize paths that cross it — but flows
// started over it fail immediately.
func (l *Link) Capacity() float64 { return l.capacity }

// NominalCapacity returns the capacity the link was created with,
// independent of any degradation applied since.
func (l *Link) NominalCapacity() float64 { return l.base }

// CapacityScale returns the current health factor (1 = healthy).
func (l *Link) CapacityScale() float64 { return l.scale }

// Down reports whether the link has failed (see FailLink).
func (l *Link) Down() bool { return l.down }

// SetCapacityScale degrades (or restores) the link to factor × nominal
// capacity. In-flight flows are settled at the old rates and re-rated at
// the new capacity from the current instant on. The factor must be positive
// and finite; use FailLink for a hard failure.
func (l *Link) SetCapacityScale(factor float64) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity scale must be positive and finite, got %v", l.name, factor))
	}
	if factor == l.scale {
		return
	}
	n := l.net
	n.settle()
	l.scale = factor
	l.capacity = l.base * factor
	n.reach(l)
	n.rerate()
}

// FailLink takes the link down: every active flow crossing it fails (its
// Done signal fails with an ErrLinkDown-wrapped error) and subsequent
// StartFlow calls over the link fail immediately until Restore. Failing a
// failed link is a no-op.
func (l *Link) FailLink() {
	if l.down {
		return
	}
	n := l.net
	n.settle()
	l.down = true
	// Abort active flows in insertion order (deterministic). Copy first:
	// failFlow mutates l.active via removeFlow.
	victims := append([]*Flow(nil), l.active...)
	err := fmt.Errorf("%w: %s", ErrLinkDown, l.name)
	for _, f := range victims {
		n.failFlow(f, err)
	}
	// Collect only once every victim is gone, so none is re-rated.
	for _, f := range victims {
		for _, m := range f.route {
			n.reach(m)
		}
	}
	n.rerate()
}

// Restore brings a failed link back up at its current capacity scale.
// Flows failed by FailLink stay failed; new flows may use the link again.
// A down link carries no flows, so no rate changes; the settlement still
// marks the instant, like every other change.
func (l *Link) Restore() {
	if !l.down {
		return
	}
	l.net.settle()
	l.down = false
}

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int { return len(l.active) }

// BytesCarried returns the total bytes the link has carried so far.
func (l *Link) BytesCarried() float64 {
	l.net.settle()
	return l.bytesCarried
}

// BusyTime returns the total virtual time the link spent with at least one
// active flow.
func (l *Link) BusyTime() float64 {
	l.net.settle()
	return l.busy
}

// Flow is an in-progress transfer over a route. It embeds its done signal
// and is the handler of its own completion events, so starting a flow
// allocates the Flow and nothing else.
type Flow struct {
	route      []*Link
	routeIdx   []int32 // position of this flow in each route link's active slice
	idxBuf     [4]int32
	remaining  float64
	rate       float64
	done       sim.Signal
	completion sim.EventHandle
	started    sim.Time
	seq        uint64 // monotonic start order; deterministic tie-breaker
	net        *Network
	finished   bool

	// re-rating scratch, valid only inside a reach/rerate sequence.
	frozen  bool
	visit   uint64 // equals net.stamp while in the collected component
	newRate float64
}

// flowEvent is the Handler form of a Flow; its argument selects the event.
type flowEvent Flow

const (
	flowFinish = iota // a (re)scheduled completion: settle and finish
	flowFire          // a zero-byte flow completes at once
)

func (e *flowEvent) Handle(arg int) {
	f := (*Flow)(e)
	if arg == flowFire {
		f.done.Fire()
		return
	}
	f.net.finish(f)
}

// Done returns the signal that fires when the flow completes.
func (f *Flow) Done() *sim.Signal { return &f.done }

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the last settlement.
func (f *Flow) Remaining() float64 {
	f.net.settle()
	return f.remaining
}

// Started returns the virtual time the flow began.
func (f *Flow) Started() sim.Time { return f.started }

// Seq returns the flow's monotonic start sequence number. Flows started
// earlier have smaller sequence numbers; flows started at the same virtual
// instant are still totally ordered by it.
func (f *Flow) Seq() uint64 { return f.seq }

// Network owns links and active flows and performs rate allocation.
type Network struct {
	sim       *sim.Simulator
	links     []*Link
	flows     []*Flow // active flows in start (seq) order
	flowSeq   uint64
	settledAt sim.Time

	// The dynamic component collected for the next rerate: its links and
	// flows carry visit == stamp. rerate empties both and bumps stamp.
	stamp     uint64
	compLinks []*Link
	compFlows []*Flow
}

// NewNetwork creates an empty flow network on the given simulator.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{sim: s, settledAt: s.Now(), stamp: 1}
}

// Sim returns the simulator the network runs on.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// AddLink creates a link with the given capacity in bytes/second.
// Capacity must be positive.
func (n *Network) AddLink(name string, capacity float64) *Link {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity must be positive and finite, got %v", name, capacity))
	}
	l := &Link{name: name, base: capacity, scale: 1, capacity: capacity, net: n, idx: len(n.links)}
	n.links = append(n.links, l)
	return l
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// ActiveFlowCount returns the number of in-flight flows.
func (n *Network) ActiveFlowCount() int { return len(n.flows) }

// StartFlow begins transferring bytes over route. The returned flow's Done
// signal fires when the last byte arrives. A route must contain at least
// one link and must not repeat a link; zero-byte flows complete at the
// current instant.
func (n *Network) StartFlow(bytes float64, route ...*Link) *Flow {
	if len(route) == 0 {
		panic("fluid: StartFlow requires a non-empty route")
	}
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("fluid: StartFlow bytes must be non-negative, got %v", bytes))
	}
	for i, l := range route {
		if l.net != n {
			// Rate allocation is a per-network fixpoint: links that a route
			// couples must live in one network.
			panic(fmt.Sprintf("fluid: route link %q belongs to a different network", l.name))
		}
		for _, prev := range route[:i] {
			if prev == l {
				panic(fmt.Sprintf("fluid: route repeats link %q", l.name))
			}
		}
	}
	f := &Flow{
		route:     route,
		remaining: bytes,
		started:   n.sim.Now(),
		net:       n,
	}
	f.done.Init(n.sim)
	if bytes == 0 {
		f.finished = true
		n.sim.ScheduleHandler(0, (*flowEvent)(f), flowFire)
		return f
	}
	for _, l := range route {
		if l.down {
			// Fail fast: the flow never joins the network, so it does not
			// perturb the rates of healthy flows.
			f.finished = true
			err := fmt.Errorf("%w: %s", ErrLinkDown, l.name)
			n.sim.Schedule(0, func() { f.done.Fail(err) })
			return f
		}
	}
	n.settle()
	f.seq = n.flowSeq
	n.flowSeq++
	n.flows = append(n.flows, f)
	if len(route) <= len(f.idxBuf) {
		f.routeIdx = f.idxBuf[:0]
	} else {
		f.routeIdx = make([]int32, 0, len(route))
	}
	for _, l := range route {
		f.routeIdx = append(f.routeIdx, int32(len(l.active)))
		l.active = append(l.active, f)
	}
	n.reach(route[0]) // f joins every link of its route to one component
	n.rerate()
	return f
}

// settle advances per-flow remaining bytes and per-link accounting from the
// last settlement point to now, using the rates in force over that span.
func (n *Network) settle() {
	now := n.sim.Now()
	dt := now - n.settledAt
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	for _, l := range n.links {
		if len(l.active) == 0 {
			continue
		}
		var sum float64
		for _, f := range l.active {
			sum += f.rate
		}
		l.bytesCarried += sum * dt
		l.busy += dt
	}
	n.settledAt = now
}

// reach adds l, and every link and flow reachable from it through active
// flows, to the component collected for the next rerate. Links already
// collected are skipped, so several calls collect the union of their
// components.
func (n *Network) reach(l *Link) {
	if l.visit == n.stamp {
		return
	}
	l.visit = n.stamp
	next := len(n.compLinks)
	n.compLinks = append(n.compLinks, l)
	for ; next < len(n.compLinks); next++ {
		for _, f := range n.compLinks[next].active {
			if f.visit == n.stamp {
				continue
			}
			f.visit = n.stamp
			n.compFlows = append(n.compFlows, f)
			for _, m := range f.route {
				if m.visit != n.stamp {
					m.visit = n.stamp
					n.compLinks = append(n.compLinks, m)
				}
			}
		}
	}
}

// rerate computes max-min fair rates for the flows of the collected
// component and reschedules, in seq order, the completion events of those
// whose rate changed. Flows whose rate is unchanged keep their pending
// event: it already points at the correct absolute completion time, so
// churning it would only waste heap work. Flows outside the component are
// not looked at.
func (n *Network) rerate() {
	if len(n.compFlows) > 0 {
		if k := len(n.compFlows); k*k > len(n.flows) {
			// A large component is cheaper to pick out of the
			// seq-ordered n.flows than to sort.
			n.compFlows = n.compFlows[:0]
			for _, f := range n.flows {
				if f.visit == n.stamp {
					n.compFlows = append(n.compFlows, f)
				}
			}
		} else {
			slices.SortFunc(n.compFlows, func(a, b *Flow) int { return cmp.Compare(a.seq, b.seq) })
		}
		n.maxMinRates()
		for _, f := range n.compFlows {
			if f.newRate == f.rate {
				continue
			}
			f.completion.Cancel()
			f.rate = f.newRate
			if f.rate <= 0 {
				// No capacity at all (cannot happen with positive link
				// capacities, but guard against division by zero).
				continue
			}
			f.completion = n.sim.ScheduleHandler(f.remaining/f.rate, (*flowEvent)(f), flowFinish)
		}
	}
	clear(n.compFlows) // drop references to flows that may finish
	n.compLinks = n.compLinks[:0]
	n.compFlows = n.compFlows[:0]
	n.stamp++
}

// maxMinRates runs progressive filling over the collected component,
// leaving each of its flows' allocation in the newRate scratch field. It
// allocates nothing: link residual capacity and unfrozen counts live on the
// links, and bottleneck membership is a round stamp. Flows freeze in seq
// order, the order rerate reschedules them in. Links are scanned in
// collection order, which cannot change a bit: the scan takes a minimum
// and marks links one by one, and within a round every frozen flow takes
// the same share off each link it crosses.
func (n *Network) maxMinRates() {
	for _, l := range n.compLinks {
		l.residual = l.capacity
		l.unfrozen = len(l.active)
		l.markRound = 0
	}
	for _, f := range n.compFlows {
		f.frozen = false
	}
	remaining := len(n.compFlows)
	for round := 1; remaining > 0; round++ {
		// Find the bottleneck share: min over links of residual/unfrozen.
		share := math.Inf(1)
		for _, l := range n.compLinks {
			if l.unfrozen == 0 {
				continue
			}
			if s := l.residual / float64(l.unfrozen); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			break // no constraining link left; shouldn't happen
		}
		// Mark links that hit the bottleneck share (within a small relative
		// tolerance to absorb float error).
		tol := share * 1e-9
		marked := 0
		for _, l := range n.compLinks {
			if l.unfrozen == 0 {
				continue
			}
			if l.residual/float64(l.unfrozen) <= share+tol {
				l.markRound = round
				marked++
			}
		}
		if marked == 0 {
			break // numerical corner; leave the rest unfrozen
		}
		// Freeze unfrozen flows crossing a marked link, in seq order.
		progressed := false
		for _, f := range n.compFlows {
			if f.frozen {
				continue
			}
			hit := false
			for _, l := range f.route {
				if l.markRound == round {
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
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.unfrozen--
			}
		}
		if !progressed {
			break // defensive: marked links had no unfrozen flows
		}
	}
	// Any flow not frozen (degenerate corner) gets no allocation.
	for _, f := range n.compFlows {
		if !f.frozen {
			f.newRate = 0
		}
	}
}

// removeFlow detaches a finished flow from the network and its links.
// Removal from n.flows preserves its seq order (the flow is found by
// binary search on seq); removal from a link's active slice swaps with the
// last element and patches the moved flow's routeIdx entry.
func (n *Network) removeFlow(f *Flow) {
	i, _ := slices.BinarySearchFunc(n.flows, f.seq, func(g *Flow, seq uint64) int { return cmp.Compare(g.seq, seq) })
	n.flows = slices.Delete(n.flows, i, i+1)
	for ri, l := range f.route {
		idx := f.routeIdx[ri]
		last := len(l.active) - 1
		moved := l.active[last]
		l.active[idx] = moved
		l.active[last] = nil
		l.active = l.active[:last]
		if moved != f {
			for mi, ml := range moved.route {
				if ml == l {
					moved.routeIdx[mi] = idx
					break
				}
			}
		}
	}
}

// failFlow aborts an in-flight flow: it is removed from the network and its
// links, its pending completion event is canceled, and its done signal
// fails with err. The caller is responsible for settling beforehand and
// re-rating the survivors of the victim's component afterwards (FailLink
// batches both around a group of victims).
func (n *Network) failFlow(f *Flow, err error) {
	if f.finished {
		return
	}
	f.finished = true
	f.completion.Cancel()
	f.rate = 0
	n.removeFlow(f)
	f.done.Fail(err)
}

// finish completes a flow: verifies its bytes drained, removes it from the
// network, fires its done signal, and re-rates the survivors of its
// component.
func (n *Network) finish(f *Flow) {
	if f.finished {
		return
	}
	n.settle()
	// Tolerate tiny residues from float arithmetic.
	if f.remaining > 1e-6*math.Max(1, f.rate) {
		// Rates changed since this event was scheduled; the event should
		// have been canceled. Defensive: cancel whatever handle is still
		// armed (overwriting it without canceling would leak a live event
		// that finishes the flow early) and reschedule at the current rate.
		f.completion.Cancel()
		if f.rate > 0 {
			f.completion = n.sim.ScheduleHandler(f.remaining/f.rate, (*flowEvent)(f), flowFinish)
		}
		return
	}
	f.finished = true
	f.remaining = 0
	f.rate = 0
	f.completion.Cancel() // no-op for the event that fired; drops a stale one
	n.removeFlow(f)
	f.done.Fire()
	for _, l := range f.route {
		n.reach(l)
	}
	n.rerate()
}
