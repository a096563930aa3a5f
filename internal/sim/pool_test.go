package sim

import "testing"

// TestPendingCounter checks the O(1) Pending counter against a brute-force
// scan through schedule / cancel / run transitions.
func TestPendingCounter(t *testing.T) {
	s := New()
	brute := func() int {
		n := 0
		for _, e := range s.queue {
			if !s.events[e.slot].canceled {
				n++
			}
		}
		for _, slot := range s.fifo[s.head:] {
			if !s.events[slot].canceled {
				n++
			}
		}
		return n
	}
	var handles []EventHandle
	for i := 0; i < 40; i++ {
		handles = append(handles, s.Schedule(float64(i), func() {}))
	}
	if got := s.Pending(); got != 40 || got != brute() {
		t.Fatalf("Pending() = %d, brute = %d, want 40", got, brute())
	}
	for i := 0; i < 40; i += 2 {
		handles[i].Cancel()
	}
	if got := s.Pending(); got != 20 || got != brute() {
		t.Fatalf("after cancel: Pending() = %d, brute = %d, want 20", got, brute())
	}
	// Double-cancel must not double-count.
	handles[0].Cancel()
	if got := s.Pending(); got != 20 {
		t.Fatalf("after double cancel: Pending() = %d, want 20", got)
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != brute() {
		t.Fatalf("after partial run: Pending() = %d, brute = %d", got, brute())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("after drain: Pending() = %d, want 0", got)
	}
}

// TestStaleHandleCancelIsInert checks that a handle to an already-executed
// event cannot cancel the unrelated event that recycled its struct.
func TestStaleHandleCancelIsInert(t *testing.T) {
	s := New()
	ran1, ran2 := false, false
	h1 := s.Schedule(1, func() { ran1 = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran1 {
		t.Fatal("first event did not run")
	}
	// The next schedule reuses the recycled struct (free-list LIFO).
	s.Schedule(1, func() { ran2 = true })
	h1.Cancel() // stale: must not touch the new event
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran2 {
		t.Fatal("stale handle canceled a recycled event")
	}
}

// TestCancelDuringCallbackOfRecycledSelf checks canceling a handle to the
// currently-executing event is a no-op.
func TestCancelDuringCallbackOfRecycledSelf(t *testing.T) {
	s := New()
	var h EventHandle
	other := false
	h = s.Schedule(1, func() {
		h.Cancel() // self, already consumed
		s.Schedule(1, func() { other = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !other {
		t.Fatal("follow-up event lost")
	}
}

// TestCompactionPreservesOrder cancels most of a large queue (forcing
// compaction) and checks the survivors still run in (time, seq) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New()
	var order []int
	var handles []EventHandle
	const total = 500
	for i := 0; i < total; i++ {
		i := i
		handles = append(handles, s.Schedule(float64(total-i), func() {
			order = append(order, total-i)
		}))
	}
	// Cancel ~80%: every handle not a multiple of 5.
	for i := range handles {
		if i%5 != 0 {
			handles[i].Cancel()
		}
	}
	if got, want := s.Pending(), total/5; got != want {
		t.Fatalf("Pending() = %d, want %d", got, want)
	}
	if len(s.queue) >= total {
		t.Fatalf("queue not compacted: len=%d", len(s.queue))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != total/5 {
		t.Fatalf("ran %d events, want %d", len(order), total/5)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order after compaction: %v", order[:i+1])
		}
	}
}

// TestEventPoolSteadyStateAllocFree checks that schedule/run cycles reuse
// event structs instead of allocating.
func TestEventPoolSteadyStateAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		s.Schedule(1, fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Schedule(1, fn)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule+run allocates %.1f/op, want 0", allocs)
	}
}

// TestCancelRescheduleChurnBoundsHeap models the fluid re-rating pattern:
// repeatedly cancel and reschedule a large working set and check the heap
// stays near the live-event count instead of accumulating tombstones.
func TestCancelRescheduleChurnBoundsHeap(t *testing.T) {
	s := New()
	const live = 100
	handles := make([]EventHandle, live)
	for i := range handles {
		handles[i] = s.Schedule(1e6+float64(i), func() {})
	}
	for round := 0; round < 200; round++ {
		for i := range handles {
			handles[i].Cancel()
			handles[i] = s.Schedule(1e6+float64(i+round), func() {})
		}
		if len(s.queue) > 4*live {
			t.Fatalf("round %d: heap grew to %d (live=%d); compaction not engaging", round, len(s.queue), live)
		}
	}
	if got := s.Pending(); got != live {
		t.Fatalf("Pending() = %d, want %d", got, live)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, fn)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCancelRescheduleChurn(b *testing.B) {
	s := New()
	const live = 64
	fn := func() {}
	handles := make([]EventHandle, live)
	for i := range handles {
		handles[i] = s.Schedule(1e9, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % live
		handles[j].Cancel()
		handles[j] = s.Schedule(1e9, fn)
	}
}

// fireIdx fires sigs[i] from an event without allocating a closure.
type fireIdx []*Signal

func (f *fireIdx) Handle(i int) { (*f)[i].Fire() }

// TestProcWaitAndSleepAllocFree checks that blocking a process on a timer
// or a signal, and resuming it, allocates nothing once the event arena is
// warm.
func TestProcWaitAndSleepAllocFree(t *testing.T) {
	s := New()
	var sleepAllocs, waitAllocs, firedAllocs float64
	const runs = 100
	sigs := make([]*Signal, runs+1)
	for i := range sigs {
		sigs[i] = s.NewSignal()
	}
	fire := fireIdx(sigs)
	done := s.NewSignal()
	done.Fire()
	s.Spawn("p", func(p *Proc) {
		p.Sleep(1) // warm the arena and the FIFO
		sleepAllocs = testing.AllocsPerRun(runs, func() { p.Sleep(1) })
		i := 0
		waitAllocs = testing.AllocsPerRun(runs, func() {
			s.ScheduleHandler(1, &fire, i)
			if err := p.Wait(sigs[i]); err != nil {
				t.Error(err)
			}
			i++
		})
		firedAllocs = testing.AllocsPerRun(runs, func() {
			if err := p.Wait(done); err != nil {
				t.Error(err)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sleepAllocs != 0 || waitAllocs != 0 || firedAllocs != 0 {
		t.Fatalf("allocs per op: Sleep %.1f, Wait %.1f, Wait on fired %.1f; want 0", sleepAllocs, waitAllocs, firedAllocs)
	}
}
