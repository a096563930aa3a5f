// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time, sequence)
// order. On top of the raw event loop it offers a process abstraction
// (Simulator.Spawn) in which simulation logic is written as ordinary
// sequential Go code that blocks on virtual time (Proc.Sleep) or on
// one-shot signals (Proc.Wait). Exactly one process runs at any instant and
// the scheduler hands control back and forth with strict channel handshakes,
// so simulations are fully deterministic and race-free even though each
// process is backed by a goroutine.
//
// Time is modeled as float64 seconds. Event ties are broken by insertion
// order, so two events scheduled for the same instant run in the order they
// were scheduled.
//
// Event structs are pooled: an executed or compacted-away event is recycled
// for the next Schedule/At call, so steady-state scheduling does not
// allocate. Canceled events stay in the heap until popped, but when they
// outnumber live events the queue is compacted in place, bounding heap
// growth under heavy cancel/reschedule churn (the fluid re-rating pattern).
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// Duration is a span of virtual time, in seconds.
type Duration = float64

// event is a scheduled callback. Events are created via Simulator.Schedule
// and Simulator.At and recycled through the simulator's free list after
// they run or are compacted away; gen disambiguates a recycled struct from
// the event an old handle referred to.
type event struct {
	at  Time
	seq uint64
	fn  func()
	sim *Simulator
	// canceled events stay in the heap but are skipped when popped.
	canceled bool
	gen      uint64
}

// EventHandle allows a scheduled event to be canceled before it fires.
// The zero EventHandle is valid and canceling it is a no-op.
//
// Handles are shard-local: a handle may only be canceled from the
// goroutine currently running its simulator (an event callback or process
// of the same shard, or the coordinator between epochs). Event structs
// are pooled per shard, so the generation check below stays single-shard
// and lock-free.
type EventHandle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from running. Canceling an already-executed or
// already-canceled event is a no-op. Pooled-event reuse cannot be
// mis-canceled (the ABA case): every recycle bumps the struct's
// generation, each handle pins the generation it was issued against, and
// a mismatch makes the stale handle inert — even when the struct has been
// recycled several times, e.g. across cluster epochs where the shard
// router delivers cross-shard events into the same pool.
func (h EventHandle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil // release the closure now; the shell stays queued
	s := ev.sim
	s.canceled++
	// Compact when cancellations dominate the heap. The threshold keeps
	// compaction amortized O(1) per cancel while bounding memory at ~2x
	// the live event count.
	if s.canceled > len(s.queue)/2 && len(s.queue) >= compactMinQueue {
		s.compact()
	}
}

// compactMinQueue is the minimum heap size before cancel-triggered
// compaction kicks in; below it the wasted slots are too small to matter.
const compactMinQueue = 64

// eventQueue is a binary min-heap of events ordered by (at, seq). The
// order is strict and total — seq is unique per simulator — so the pop
// sequence is the same for any correct heap, and a typed heap avoids an
// interface call per comparison.
type eventQueue []*event

// before reports whether a runs before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev and restores the heap invariant.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	last := len(h) - 1
	ev := h[0]
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	if last > 0 {
		h.down(0)
	}
	*q = h
	return ev
}

// down sifts the event at i toward the leaves until neither child runs
// before it.
func (q eventQueue) down(i int) {
	ev := q[i]
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// heapify establishes the heap invariant over an arbitrary ordering.
func (q eventQueue) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// Simulator owns the virtual clock and the pending event queue.
// A Simulator must not be shared between OS threads while running;
// all interaction during a run happens from event callbacks and processes.
// (A Cluster runs several Simulators on several threads, but each
// Simulator is still only ever touched by one goroutine at a time — see
// shard.go.)
type Simulator struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	// procs counts live (spawned, not yet finished) processes, used for
	// deadlock detection when the event queue drains.
	procs   int
	blocked int // processes currently waiting on a Signal (not a timer)
	err     error
	stopped bool

	canceled int      // canceled events still sitting in the heap
	free     []*event // recycled event structs

	// executed counts events run so far (diagnostics; epoch accounting).
	executed uint64

	// Cluster membership (nil/0 for a standalone simulator). The shard ID
	// participates in the cluster's global (time, shard, seq) event-order
	// tie-break; the outbox buffers conservatively-scheduled cross-shard
	// events until the next epoch barrier.
	cluster *Cluster
	shard   int
	xseq    uint64 // per-shard sequence for outbox entries
	outbox  []remoteEvent
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled, not-yet-executed events.
// It is O(1): the simulator tracks cancellations with a live counter.
func (s *Simulator) Pending() int {
	return len(s.queue) - s.canceled
}

// Executed returns the number of events run since creation (diagnostics;
// the cluster epoch reporter differences it per epoch).
func (s *Simulator) Executed() uint64 { return s.executed }

// Shard returns the simulator's shard ID within its cluster (0 for a
// standalone simulator).
func (s *Simulator) Shard() int { return s.shard }

// NextEventTime returns the timestamp of the earliest pending event, or
// ok=false when none remain. Canceled events found at the head of the
// queue are retired on the way (they would be skipped by Run anyway).
func (s *Simulator) NextEventTime() (Time, bool) {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if !ev.canceled {
			return ev.at, true
		}
		s.queue.pop()
		s.canceled--
		s.recycle(ev)
	}
	return 0, false
}

// newEvent takes an event struct from the free list or allocates one.
func (s *Simulator) newEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{sim: s}
}

// recycle retires an event struct (already removed from the heap) to the
// free list, invalidating any outstanding handles to it.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// compact removes canceled events from the heap in place, recycling their
// structs, and restores the heap invariant.
func (s *Simulator) compact() {
	live := s.queue[:0]
	for _, ev := range s.queue {
		if ev.canceled {
			s.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	s.canceled = 0
	s.queue.heapify()
}

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero. It returns a handle that can cancel the event.
func (s *Simulator) Schedule(delay Duration, fn func()) EventHandle {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (s *Simulator) At(t Time, fn func()) EventHandle {
	if t < s.now || math.IsNaN(t) {
		t = s.now
	}
	ev := s.newEvent()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.queue.push(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// fail records the first error and stops the run.
func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
}

// ErrDeadlock is returned by Run when live processes remain blocked but no
// events are pending, i.e. virtual time can no longer advance.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes with empty event queue")

// Run executes events until the queue drains, Stop is called, or an error
// occurs. It returns ErrDeadlock if processes remain blocked with no
// pending events, or the first error recorded by a process.
func (s *Simulator) Run() error {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= limit. The clock is left at
// the time of the last executed event (or at limit if nothing remained).
func (s *Simulator) RunUntil(limit Time) error {
	return s.runLimit(limit, true)
}

// runLimit is the core event loop. With inclusive=true events at exactly
// limit run (RunUntil semantics); with inclusive=false they stay queued —
// the cluster epoch scheduler uses the exclusive form so that an event at
// the epoch horizon is ordered against cross-shard events arriving at that
// same instant instead of racing ahead of them.
func (s *Simulator) runLimit(limit Time, inclusive bool) error {
	if s.running {
		return errors.New("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		ev := s.popRunnable()
		if ev == nil {
			// A clustered shard with a drained queue may still receive
			// cross-shard events at the next epoch barrier; the cluster
			// performs the global deadlock check instead.
			if s.procs > 0 && s.err == nil && s.cluster == nil {
				s.err = fmt.Errorf("%w (%d live processes)", ErrDeadlock, s.procs)
			}
			break
		}
		if ev.at > limit || (!inclusive && ev.at == limit) {
			// Put it back for a later run.
			s.queue.push(ev)
			if s.now < limit {
				s.now = limit
			}
			break
		}
		s.now = ev.at
		fn := ev.fn
		// Recycle before running: the callback may schedule new events,
		// which can then reuse this struct. The handle to this event is
		// already invalidated by the generation bump.
		s.recycle(ev)
		s.executed++
		fn()
	}
	return s.err
}

// popRunnable removes and returns the earliest non-canceled event,
// or nil when none remain.
func (s *Simulator) popRunnable() *event {
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if !ev.canceled {
			return ev
		}
		s.canceled--
		s.recycle(ev)
	}
	return nil
}

// Err returns the first error recorded during the run, if any.
func (s *Simulator) Err() error { return s.err }
