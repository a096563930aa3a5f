package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is the handle a spawned process uses to interact with virtual time.
// A Proc is only valid inside the function passed to Spawn and must not be
// retained or used from other goroutines.
type Proc struct {
	sim    *Simulator
	resume chan struct{}
	yield  chan struct{}
	done   Signal
	name   string
}

// waker is the Handler form of a Proc: every wakeup (spawn, timer, signal)
// hands control to the process goroutine. The conversion from *Proc is
// free, so Sleep and Wait allocate nothing.
type waker Proc

func (w *waker) Handle(int) { (*Proc)(w).step() }

// Spawn starts a new simulated process executing body. The process begins
// at the current virtual instant (as a zero-delay event). The returned
// signal fires when body returns.
//
// Inside body, exactly one process or event callback runs at a time; body
// may freely touch simulation state between blocking calls.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Signal {
	p := &Proc{
		sim:    s,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		name:   name,
	}
	p.done.Init(s)
	s.procs++
	go func() {
		<-p.resume // wait for first scheduling
		defer func() {
			if r := recover(); r != nil {
				s.fail(fmt.Errorf("sim: process %q panicked: %v\n%s", name, r, debug.Stack()))
			}
			s.procs--
			p.done.Fire()
			p.yield <- struct{}{}
		}()
		body(p)
	}()
	s.ScheduleHandler(0, (*waker)(p), 0)
	return &p.done
}

// step transfers control to the process goroutine and blocks until it
// yields (either by blocking on a wait/sleep or by finishing).
func (p *Proc) step() {
	p.resume <- struct{}{}
	<-p.yield
}

// suspend parks the process until resumed by the scheduler.
// Must be called from the process goroutine.
func (p *Proc) suspend() {
	p.yield <- struct{}{}
	<-p.resume
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Sim returns the simulator this process runs on.
func (p *Proc) Sim() *Simulator { return p.sim }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for d units of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.sim.ScheduleHandler(d, (*waker)(p), 0)
	p.suspend()
}

// Wait suspends the process until the signal fires and returns the
// signal's error, if any. Waiting on a fired signal returns immediately
// at the current instant (control still round-trips through the scheduler
// so event ordering stays consistent).
func (p *Proc) Wait(g *Signal) error {
	p.sim.blocked++
	g.OnFireHandler((*waker)(p), 0)
	p.suspend()
	p.sim.blocked--
	return g.Err()
}

// WaitAll waits for every signal and returns the first error among them.
func (p *Proc) WaitAll(signals ...*Signal) error {
	var first error
	for _, g := range signals {
		if err := p.Wait(g); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Yield gives other events scheduled at the current instant a chance to
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
