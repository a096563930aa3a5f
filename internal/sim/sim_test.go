package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(2.0, func() { got = append(got, 2) })
	s.Schedule(1.0, func() { got = append(got, 1) })
	s.Schedule(3.0, func() { got = append(got, 3) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3.0 {
		t.Fatalf("Now = %v, want 3.0", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestNegativeAndNaNDelaysClamp(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(-5, func() { ran++ })
	s.Schedule(math.NaN(), func() { ran++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	h := s.Schedule(1, func() { ran = true })
	h.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled event ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		s.Schedule(d, func() { got = append(got, d) })
	}
	if err := s.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want first two events", got)
	}
	if s.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %v after resume, want all four", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.Schedule(0.01, rec)
		}
	}
	s.Schedule(0, rec)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestProcessSleep(t *testing.T) {
	s := New()
	var times []Time
	s.Spawn("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1.5)
		times = append(times, p.Now())
		p.Sleep(0.5)
		times = append(times, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1.5, 2.0}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcessWaitSignal(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var wokenAt Time = -1
	s.Spawn("waiter", func(p *Proc) {
		if err := p.Wait(sig); err != nil {
			t.Errorf("Wait error: %v", err)
		}
		wokenAt = p.Now()
	})
	s.Schedule(3.0, sig.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 3.0 {
		t.Fatalf("woken at %v, want 3.0", wokenAt)
	}
	if !sig.Fired() || sig.FiredAt() != 3.0 {
		t.Fatalf("signal state: fired=%v at=%v", sig.Fired(), sig.FiredAt())
	}
}

func TestWaitOnAlreadyFiredSignal(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	done := false
	s.Schedule(1, sig.Fire)
	s.Schedule(2, func() {
		s.Spawn("late", func(p *Proc) {
			if err := p.Wait(sig); err != nil {
				t.Errorf("Wait: %v", err)
			}
			if p.Now() != 2.0 {
				t.Errorf("late waiter woke at %v, want 2.0", p.Now())
			}
			done = true
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("late waiter never completed")
	}
}

func TestSignalFail(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	boom := errors.New("boom")
	var got error
	s.Spawn("w", func(p *Proc) { got = p.Wait(sig) })
	s.Schedule(1, func() { sig.Fail(boom) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("Wait error = %v, want boom", got)
	}
}

func TestSignalFireIdempotent(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	count := 0
	sig.OnFire(func() { count++ })
	s.Schedule(1, sig.Fire)
	s.Schedule(2, sig.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("waiter ran %d times, want 1", count)
	}
	if sig.FiredAt() != 1.0 {
		t.Fatalf("FiredAt = %v, want 1.0 (first fire wins)", sig.FiredAt())
	}
}

// TestSignalWaitersRunInRegistrationOrder checks that waiters run in the
// order they registered, with one, two or many of them (the first is held
// inline, the rest in a slice), and that a waiter registered after Fire
// runs after the ones Fire scheduled.
func TestSignalWaitersRunInRegistrationOrder(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		s := New()
		sig := s.NewSignal()
		var got []int
		for i := 0; i < n; i++ {
			sig.OnFire(func() { got = append(got, i) })
		}
		s.Schedule(1, func() {
			sig.Fire()
			sig.OnFire(func() { got = append(got, n) })
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != n+1 {
			t.Fatalf("%d waiters: %d ran: %v", n, len(got), got)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%d waiters: ran in order %v", n, got)
			}
		}
	}
}

// TestOnFireFirstWaiterAllocFree pins that registering a signal's only
// waiter does not allocate.
func TestOnFireFirstWaiterAllocFree(t *testing.T) {
	s := New()
	sigs := make([]*Signal, 101)
	for i := range sigs {
		sigs[i] = s.NewSignal()
	}
	fn := func() {}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		sigs[next].OnFire(fn)
		next++
	})
	if allocs != 0 {
		t.Fatalf("OnFire of a first waiter allocated %v times per call", allocs)
	}
}

func TestAllOf(t *testing.T) {
	s := New()
	a, b, c := s.NewSignal(), s.NewSignal(), s.NewSignal()
	all := AllOf(s, a, b, c)
	var at Time = -1
	all.OnFire(func() { at = s.Now() })
	s.Schedule(1, a.Fire)
	s.Schedule(5, b.Fire)
	s.Schedule(3, c.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5.0 {
		t.Fatalf("AllOf fired at %v, want 5.0", at)
	}
}

func TestAllOfEmpty(t *testing.T) {
	s := New()
	fired := false
	AllOf(s).OnFire(func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("AllOf() with no inputs never fired")
	}
}

func TestAllOfPropagatesError(t *testing.T) {
	s := New()
	a, b := s.NewSignal(), s.NewSignal()
	all := AllOf(s, a, b)
	s.Schedule(1, func() { a.Fail(errors.New("x")) })
	s.Schedule(2, b.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if all.Err() == nil {
		t.Fatal("AllOf should carry the input error")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	sig := s.NewSignal() // never fired
	s.Spawn("stuck", func(p *Proc) { _ = p.Wait(sig) })
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestProcessPanicReported(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Proc) { panic("kaput") })
	err := s.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	var log []string
	s2 := New()
	s2.Spawn("x", func(p *Proc) {
		for i := 0; i < 3; i++ {
			log = append(log, "x")
			p.Sleep(2)
		}
	})
	s2.Spawn("y", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 3; i++ {
			log = append(log, "y")
			p.Sleep(2)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "x", "y", "x", "y"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestSpawnDoneSignal(t *testing.T) {
	s := New()
	done := s.Spawn("short", func(p *Proc) { p.Sleep(2.5) })
	var at Time = -1
	done.OnFire(func() { at = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("done fired at %v, want 2.5", at)
	}
}

func TestWaitAllCollectsFirstError(t *testing.T) {
	s := New()
	a, b := s.NewSignal(), s.NewSignal()
	boom := errors.New("boom")
	var got error
	s.Spawn("w", func(p *Proc) { got = p.WaitAll(a, b) })
	s.Schedule(1, func() { a.Fail(boom) })
	s.Schedule(2, b.Fire)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("WaitAll = %v, want boom", got)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []float64
		maxd := 0.0
		for _, r := range raw {
			d := float64(r) / 100.0
			if d > maxd {
				maxd = d
			}
			dd := d
			s.Schedule(dd, func() { fired = append(fired, dd) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllOf fires exactly at the max of its inputs' fire times.
func TestQuickAllOfMax(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		sigs := make([]*Signal, len(raw))
		maxd := 0.0
		for i, r := range raw {
			d := float64(r) / 10.0
			if d > maxd {
				maxd = d
			}
			sigs[i] = s.NewSignal()
			sig := sigs[i]
			s.Schedule(d, sig.Fire)
		}
		all := AllOf(s, sigs...)
		ok := true
		all.OnFire(func() { ok = s.Now() == maxd })
		if err := s.Run(); err != nil {
			return false
		}
		return ok && all.Fired()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventLoop(b *testing.B) {
	// Throughput of schedule+dispatch cycles.
	s := New()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			s.Schedule(1e-6, fn)
		}
	}
	b.ResetTimer()
	s.Schedule(0, fn)
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	s := New()
	s.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1e-9)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
