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
// Every callback, whether an event or a signal waiter, is a Handler plus an
// int argument. Owners of simulation state (flows, stream operations,
// graph replays, processes) implement Handler and dispatch on the
// argument, so scheduling work allocates nothing per call; the func()
// entry points adapt through funcHandler onto the same path.
//
// Pending events live in a per-simulator arena; the heap holds only
// (at, seq, slot) values, so sifting touches no pointers. An executed or
// compacted-away slot is recycled for the next Schedule/At call, so
// steady-state scheduling does not allocate. Events due at the current
// instant bypass the heap through a FIFO (see runLimit for why this keeps
// the (at, seq) order). Canceled events stay queued until reached, but
// when they outnumber live events both queues are compacted in place,
// bounding growth under heavy cancel/reschedule churn (the fluid
// re-rating pattern).
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

// Handler is the closure-free callback form: the simulator calls
// Handle(arg) with the argument given when the work was scheduled or
// the waiter registered. A type with several kinds of pending work
// dispatches on arg, so one pointer serves every stage of its life.
type Handler interface {
	Handle(arg int)
}

// funcHandler adapts a func() to Handler. A func value is pointer-shaped,
// so the conversion to an interface does not allocate.
type funcHandler func()

func (f funcHandler) Handle(int) { f() }

// event is one arena slot: the callback of a scheduled event. Slots are
// recycled after they run or are compacted away; gen disambiguates a
// recycled slot from the event an old handle referred to.
type event struct {
	h   Handler
	arg int
	gen uint64
	// canceled events stay queued but are skipped when reached.
	canceled bool
}

// entry is one heap element. It carries the ordering key inline and no
// pointers, so sifting needs no write barriers.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// EventHandle allows a scheduled event to be canceled before it fires.
// The zero EventHandle is valid and canceling it is a no-op. A handle may
// only be canceled from the goroutine running its simulator.
type EventHandle struct {
	s    *Simulator
	slot int32
	gen  uint64
}

// Cancel prevents the event from running. Canceling an already-executed or
// already-canceled event is a no-op. Slot reuse cannot be mis-canceled
// (the ABA case): every recycle bumps the slot's generation, each handle
// pins the generation it was issued against, and a mismatch makes the
// stale handle inert — even when the slot has been recycled several
// times.
func (h EventHandle) Cancel() {
	s := h.s
	if s == nil {
		return
	}
	ev := &s.events[h.slot]
	if ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	ev.h = nil // release the callback now; the slot stays queued
	s.canceled++
	// Compact when cancellations dominate the queues. The threshold keeps
	// compaction amortized O(1) per cancel while bounding memory at ~2x
	// the live event count.
	if n := s.queued(); s.canceled > n/2 && n >= compactMinQueue {
		s.compact()
	}
}

// compactMinQueue is the minimum queue size before cancel-triggered
// compaction kicks in; below it the wasted slots are too small to matter.
const compactMinQueue = 64

// eventQueue is a binary min-heap ordered by (at, seq). The order is strict
// and total — seq is unique per simulator — so the pop sequence is the
// same for any correct heap.
type eventQueue []entry

// before reports whether a runs before b.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds e and restores the heap invariant.
func (q *eventQueue) push(e entry) {
	*q = append(*q, e)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

// pop removes the earliest entry and returns its slot. The queue must be
// non-empty.
func (q *eventQueue) pop() int32 {
	h := *q
	last := len(h) - 1
	slot := h[0].slot
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		h.down(0)
	}
	*q = h
	return slot
}

// down sifts the entry at i toward the leaves until neither child runs
// before it.
func (q eventQueue) down(i int) {
	e := q[i]
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
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
// Independent simulations run in parallel on one Simulator each.
type Simulator struct {
	now Time
	seq uint64

	events []event    // arena of pending and recycled event slots
	free   []int32    // recycled arena slots
	queue  eventQueue // events due after they were scheduled
	// fifo holds the slots of events scheduled for the instant the clock
	// already shows, in scheduling order, from fifo[head] on.
	fifo     []int32
	head     int
	canceled int // canceled events still sitting in queue or fifo

	running bool
	// procs counts live (spawned, not yet finished) processes, used for
	// deadlock detection when the event queue drains.
	procs   int
	blocked int // processes currently waiting on a Signal (not a timer)
	err     error
	stopped bool

	// executed counts events run so far (diagnostics).
	executed uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// queued returns the number of queued events, canceled ones included.
func (s *Simulator) queued() int { return len(s.queue) + len(s.fifo) - s.head }

// Pending returns the number of scheduled, not-yet-executed events.
// It is O(1): the simulator tracks cancellations with a live counter.
func (s *Simulator) Pending() int {
	return s.queued() - s.canceled
}

// Executed returns the number of events run since creation (diagnostics).
func (s *Simulator) Executed() uint64 { return s.executed }

// next retires canceled events at the fronts of both queues and locates
// the earliest live event: in the heap (fromHeap) or at the FIFO head.
// Heap entries due now were scheduled before the clock reached now, so
// they precede every FIFO entry (see runLimit).
func (s *Simulator) next() (fromHeap bool, at Time, ok bool) {
	if s.canceled > 0 {
		s.retireCanceledFronts()
	}
	fifo := s.head < len(s.fifo)
	if len(s.queue) > 0 && (!fifo || s.queue[0].at <= s.now) {
		return true, s.queue[0].at, true
	}
	if fifo {
		return false, s.now, true
	}
	return false, 0, false
}

// retireCanceledFronts recycles canceled events at the fronts of both
// queues.
func (s *Simulator) retireCanceledFronts() {
	for len(s.queue) > 0 && s.events[s.queue[0].slot].canceled {
		s.canceled--
		s.recycle(s.queue.pop())
	}
	for s.head < len(s.fifo) && s.events[s.fifo[s.head]].canceled {
		s.canceled--
		s.recycle(s.fifo[s.head])
		s.popFIFO()
	}
}

// popFIFO advances the FIFO head, rewinding the slice once it empties.
func (s *Simulator) popFIFO() {
	s.head++
	if s.head == len(s.fifo) {
		s.fifo = s.fifo[:0]
		s.head = 0
	}
}

// recycle retires an event slot (already removed from its queue) to the
// free list, invalidating any outstanding handles to it.
func (s *Simulator) recycle(slot int32) {
	ev := &s.events[slot]
	ev.gen++
	ev.h = nil
	ev.canceled = false
	s.free = append(s.free, slot)
}

// compact removes canceled events from both queues in place, recycling
// their slots, and restores the heap invariant. The FIFO keeps its order.
func (s *Simulator) compact() {
	live := s.queue[:0]
	for _, e := range s.queue {
		if s.events[e.slot].canceled {
			s.recycle(e.slot)
		} else {
			live = append(live, e)
		}
	}
	s.queue = live
	s.queue.heapify()
	fifo := s.fifo[:0]
	for _, slot := range s.fifo[s.head:] {
		if s.events[slot].canceled {
			s.recycle(slot)
		} else {
			fifo = append(fifo, slot)
		}
	}
	s.fifo = fifo
	s.head = 0
	s.canceled = 0
}

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero. It returns a handle that can cancel the event.
func (s *Simulator) Schedule(delay Duration, fn func()) EventHandle {
	return s.ScheduleHandler(delay, funcHandler(fn), 0)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (s *Simulator) At(t Time, fn func()) EventHandle {
	return s.AtHandler(t, funcHandler(fn), 0)
}

// ScheduleHandler is Schedule in closure-free form: h.Handle(arg) runs
// after delay units of virtual time.
func (s *Simulator) ScheduleHandler(delay Duration, h Handler, arg int) EventHandle {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return s.AtHandler(s.now+delay, h, arg)
}

// AtHandler is At in closure-free form: h.Handle(arg) runs at absolute
// virtual time t, clamped to the current instant.
func (s *Simulator) AtHandler(t Time, h Handler, arg int) EventHandle {
	if t < s.now || math.IsNaN(t) {
		t = s.now
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.events))
		s.events = append(s.events, event{})
	}
	ev := &s.events[slot]
	ev.h, ev.arg = h, arg
	if t == s.now {
		s.fifo = append(s.fifo, slot)
	} else {
		s.queue.push(entry{at: t, seq: s.seq, slot: slot})
	}
	s.seq++
	return EventHandle{s: s, slot: slot, gen: ev.gen}
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
// limit if later events remain queued, else at the last executed event.
func (s *Simulator) RunUntil(limit Time) error {
	return s.runLimit(limit)
}

// runLimit is the core event loop: it runs events due at or before limit.
// Events run in (at, seq) order although same-instant events skip the
// heap. An event scheduled for the instant the clock shows goes to the
// FIFO, so every heap entry due at now was pushed while the clock was
// still earlier, and carries a lower seq than every FIFO entry. Taking the
// heap entries due now first, then the FIFO, and only then advancing the
// clock is therefore exactly (at, seq) order. The clock never advances
// while the FIFO holds live events, so FIFO entries are always due now.
func (s *Simulator) runLimit(limit Time) error {
	if s.running {
		return errors.New("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		fromHeap, at, ok := s.next()
		if !ok {
			if s.procs > 0 && s.err == nil {
				s.err = fmt.Errorf("%w (%d live processes)", ErrDeadlock, s.procs)
			}
			break
		}
		if at > limit {
			// Leave it queued for a later run.
			if s.now < limit {
				s.now = limit
			}
			break
		}
		var slot int32
		if fromHeap {
			slot = s.queue.pop()
		} else {
			slot = s.fifo[s.head]
			s.popFIFO()
		}
		s.now = at
		ev := &s.events[slot]
		h, arg := ev.h, ev.arg
		// Recycle before running: the callback may schedule new events,
		// which can then reuse this slot. The handle to this event is
		// already invalidated by the generation bump.
		s.recycle(slot)
		s.executed++
		h.Handle(arg)
	}
	return s.err
}

// Err returns the first error recorded during the run, if any.
func (s *Simulator) Err() error { return s.err }
