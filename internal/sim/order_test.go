package sim

import (
	"math/rand"
	"testing"
)

// refEvent is one event as the reference model sees it: the (at, seq)
// key the simulator must order it by, and what became of it.
type refEvent struct {
	at       Time
	seq      uint64
	h        EventHandle
	canceled bool
	ran      bool
}

// orderCheck drives a simulator through a randomized schedule and keeps
// the reference: every scheduling call gets the next seq and its clamped
// time, every executed event is appended to ran.
type orderCheck struct {
	t       *testing.T
	rng     *rand.Rand
	s       *Simulator
	seq     uint64
	evs     []*refEvent
	ran     []*refEvent
	budget  int
	stopped bool
}

// runHandler lets the check schedule through the Handler entry points.
type runHandler struct{ c *orderCheck }

func (h runHandler) Handle(i int) { h.c.fire(h.c.evs[i]) }

// schedule adds one event through a randomly chosen entry point: zero,
// positive or sub-ulp delays, past and future absolute times, func and
// Handler forms.
func (c *orderCheck) schedule() {
	s := c.s
	now := s.Now()
	ev := &refEvent{seq: c.seq}
	c.seq++
	id := len(c.evs)
	c.evs = append(c.evs, ev)
	fn := func() { c.fire(ev) }
	delays := []Duration{0.25, 0.5, 1, 1.5}
	switch c.rng.Intn(7) {
	case 0:
		ev.at = now
		ev.h = s.Schedule(0, fn)
	case 1:
		// Small enough that now+d == now once the clock is past zero.
		d := now * 1e-18
		ev.at = now + d
		ev.h = s.Schedule(d, fn)
	case 2:
		d := delays[c.rng.Intn(len(delays))]
		ev.at = now + d
		ev.h = s.Schedule(d, fn)
	case 3:
		ev.at = now // clamped
		ev.h = s.At(now-1, fn)
	case 4:
		at := now + delays[c.rng.Intn(len(delays))]
		ev.at = at
		ev.h = s.AtHandler(at, runHandler{c}, id)
	case 5:
		ev.at = now
		ev.h = s.AtHandler(now, runHandler{c}, id)
	default:
		d := delays[c.rng.Intn(len(delays))]
		ev.at = now + d
		ev.h = s.ScheduleHandler(d, runHandler{c}, id)
	}
}

// cancelSome cancels up to n random events that are still pending;
// canceling a fired or canceled one must stay a no-op.
func (c *orderCheck) cancelSome(n int) {
	for i := 0; i < n && len(c.evs) > 0; i++ {
		ev := c.evs[c.rng.Intn(len(c.evs))]
		ev.h.Cancel()
		if !ev.ran {
			ev.canceled = true
		}
	}
}

func (c *orderCheck) fire(ev *refEvent) {
	if ev.canceled || ev.ran {
		c.t.Fatalf("event seq %d ran (canceled=%v ran=%v)", ev.seq, ev.canceled, ev.ran)
	}
	if now := c.s.Now(); now != ev.at {
		c.t.Fatalf("event seq %d ran at %v, scheduled for %v", ev.seq, now, ev.at)
	}
	ev.ran = true
	c.ran = append(c.ran, ev)
	switch r := c.rng.Intn(20); {
	case r == 0 && c.budget >= 100:
		// Burst: enough same-instant and future events, mostly canceled,
		// to trigger compaction with both queues populated.
		for i := 0; i < 90; i++ {
			c.schedule()
		}
		c.budget -= 90
		c.cancelSome(70)
	case r == 1:
		c.s.Stop()
		c.stopped = true
	case r < 8:
		c.cancelSome(1 + c.rng.Intn(2))
	}
	for k := c.rng.Intn(4); k > 0 && c.budget > 0; k-- {
		c.schedule()
		c.budget--
	}
}

// pending counts events the reference expects to be queued.
func (c *orderCheck) pending() int {
	n := 0
	for _, ev := range c.evs {
		if !ev.ran && !ev.canceled {
			n++
		}
	}
	return n
}

// TestQueueOrderMatchesReference checks the heap+FIFO queue against a
// reference that orders executed events by (at, seq), over randomized
// schedules mixing every entry point, cancels (with compaction), run
// limits, and Stop mid-instant followed by more At(now).
func TestQueueOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := &orderCheck{t: t, rng: rand.New(rand.NewSource(seed)), s: New(), budget: 600}
		for i := 0; i < 20; i++ {
			c.schedule()
		}
		for rounds := 0; c.s.Pending() > 0; rounds++ {
			if rounds > 10000 {
				t.Fatalf("seed %d: run did not drain", seed)
			}
			c.stopped = false
			mark := len(c.ran)
			now := c.s.Now()
			var err error
			var limit float64
			switch c.rng.Intn(4) {
			case 0:
				err = c.s.Run()
				limit = 1e300
			case 1, 2:
				limit = now + []float64{0, 0.5, 1}[c.rng.Intn(3)]
				err = c.s.RunUntil(limit)
			default:
				limit = now + 0.25
				err = c.s.RunUntil(limit)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, ev := range c.ran[mark:] {
				if ev.at > limit {
					t.Fatalf("seed %d: event at %v ran past limit %v", seed, ev.at, limit)
				}
			}
			if !c.stopped {
				for _, ev := range c.evs {
					if !ev.ran && !ev.canceled && ev.at <= limit {
						t.Fatalf("seed %d: event seq %d at %v left queued by run to %v", seed, ev.seq, ev.at, limit)
					}
				}
			}
			if got, want := c.s.Pending(), c.pending(); got != want {
				t.Fatalf("seed %d: Pending() = %d, reference %d", seed, got, want)
			}
			// More work at the instant the clock shows, possibly after a
			// Stop left same-instant events queued.
			for k := c.rng.Intn(3); k > 0; k-- {
				ev := &refEvent{at: c.s.Now(), seq: c.seq}
				c.seq++
				c.evs = append(c.evs, ev)
				ev.h = c.s.At(c.s.Now(), func() { c.fire(ev) })
			}
		}
		for i := 1; i < len(c.ran); i++ {
			a, b := c.ran[i-1], c.ran[i]
			if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
				t.Fatalf("seed %d: ran (%v, %d) before (%v, %d)", seed, a.at, a.seq, b.at, b.seq)
			}
		}
		for _, ev := range c.evs {
			if !ev.ran && !ev.canceled {
				t.Fatalf("seed %d: event seq %d never ran", seed, ev.seq)
			}
		}
	}
}
