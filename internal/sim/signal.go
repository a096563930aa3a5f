package sim

// Signal is a one-shot broadcast completion: it starts unfired, fires at
// most once, and wakes every process or callback waiting on it. Waiting on
// an already-fired signal completes immediately. Signals are the basic
// synchronization primitive connecting simulated activities (copies,
// messages) to the processes that wait for them.
//
// A Signal may be embedded by value in the record that owns it (a flow, a
// stream operation, a process) and initialized with Init; the owner then
// hands out a pointer to the embedded field. Such records are never
// recycled, so a *Signal stays valid for as long as anyone holds it.
type Signal struct {
	sim     *Simulator
	firedAt Time
	fired   bool
	// first is the first registered waiter, held inline so the common
	// one-waiter signal registers without allocating; rest holds the
	// others, in registration order.
	first waiter
	rest  []waiter
	err   error
}

// waiter is one registered callback.
type waiter struct {
	h   Handler
	arg int
}

// NewSignal creates an unfired signal bound to s.
func (s *Simulator) NewSignal() *Signal {
	return &Signal{sim: s}
}

// Init binds a zero Signal (typically one embedded in its owner) to s.
func (g *Signal) Init(s *Simulator) { g.sim = s }

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool { return g.fired }

// FiredAt returns the virtual time at which the signal fired.
// It is meaningful only when Fired is true.
func (g *Signal) FiredAt() Time { return g.firedAt }

// Err returns the error attached via Fail, or nil.
func (g *Signal) Err() error { return g.err }

// Fire marks the signal complete at the current virtual time and schedules
// all waiters to run at this instant, in registration order. Firing twice
// is a no-op.
func (g *Signal) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	g.firedAt = g.sim.Now()
	first, rest := g.first, g.rest
	g.first, g.rest = waiter{}, nil
	if first.h != nil {
		g.sim.ScheduleHandler(0, first.h, first.arg)
	}
	for _, w := range rest {
		g.sim.ScheduleHandler(0, w.h, w.arg)
	}
}

// Fail fires the signal with an error attached. Waiters observe the error
// through Err.
func (g *Signal) Fail(err error) {
	if g.fired {
		return
	}
	g.err = err
	g.Fire()
}

// OnFire registers fn to run when the signal fires; waiters run in
// registration order. If the signal already fired, fn is scheduled to run
// at the current instant.
func (g *Signal) OnFire(fn func()) { g.OnFireHandler(funcHandler(fn), 0) }

// OnFireHandler is OnFire in closure-free form: h.Handle(arg) runs when
// the signal fires.
func (g *Signal) OnFireHandler(h Handler, arg int) {
	switch {
	case g.fired:
		g.sim.ScheduleHandler(0, h, arg)
	case g.first.h == nil:
		g.first = waiter{h, arg}
	case g.rest == nil:
		// Signals that collect a second waiter usually collect a third
		// (a stream's next operation and an event wait on another stream).
		g.rest = make([]waiter, 1, 2)
		g.rest[0] = waiter{h, arg}
	default:
		g.rest = append(g.rest, waiter{h, arg})
	}
}

// allOf is the record behind AllOf: one waiter per input, no closures.
type allOf struct {
	out       Signal
	inputs    []*Signal
	remaining int
	firstErr  error
}

// AllOf returns a signal that fires once every input signal has fired,
// failing with the first input error in firing order. With no inputs the
// result fires immediately upon first event processing.
func AllOf(s *Simulator, signals ...*Signal) *Signal {
	a := &allOf{remaining: len(signals)}
	a.out.Init(s)
	if len(signals) == 0 {
		// Fire on next dispatch so callers can register waiters first.
		s.ScheduleHandler(0, a, -1)
		return &a.out
	}
	a.inputs = append([]*Signal(nil), signals...)
	for i, g := range a.inputs {
		g.OnFireHandler(a, i)
	}
	return &a.out
}

// Handle counts one fired input (arg is its index; -1 fires an empty
// AllOf).
func (a *allOf) Handle(i int) {
	if i < 0 {
		a.out.Fire()
		return
	}
	if err := a.inputs[i].Err(); a.firstErr == nil && err != nil {
		a.firstErr = err
	}
	a.remaining--
	if a.remaining == 0 {
		a.inputs = nil
		if a.firstErr != nil {
			a.out.Fail(a.firstErr)
			return
		}
		a.out.Fire()
	}
}
