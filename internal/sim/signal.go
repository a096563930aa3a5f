package sim

// Signal is a one-shot broadcast completion: it starts unfired, fires at
// most once, and wakes every process or callback waiting on it. Waiting on
// an already-fired signal completes immediately. Signals are the basic
// synchronization primitive connecting simulated activities (copies,
// messages) to the processes that wait for them.
type Signal struct {
	sim     *Simulator
	fired   bool
	firedAt Time
	// first is the first registered waiter, held inline so the common
	// one-waiter signal registers without allocating; waiters holds the
	// rest, in registration order.
	first    func()
	waiters  []func()
	payload  any
	failedAt error
}

// NewSignal creates an unfired signal bound to s.
func (s *Simulator) NewSignal() *Signal {
	return &Signal{sim: s}
}

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool { return g.fired }

// FiredAt returns the virtual time at which the signal fired.
// It is meaningful only when Fired is true.
func (g *Signal) FiredAt() Time { return g.firedAt }

// Value returns the payload attached via FireValue, or nil.
func (g *Signal) Value() any { return g.payload }

// Err returns the error attached via Fail, or nil.
func (g *Signal) Err() error { return g.failedAt }

// Fire marks the signal complete at the current virtual time and schedules
// all waiters to run at this instant. Firing twice is a no-op.
func (g *Signal) Fire() { g.FireValue(nil) }

// FireValue fires the signal with an attached payload.
func (g *Signal) FireValue(v any) {
	if g.fired {
		return
	}
	g.fired = true
	g.firedAt = g.sim.Now()
	g.payload = v
	first, rest := g.first, g.waiters
	g.first, g.waiters = nil, nil
	if first != nil {
		g.sim.Schedule(0, first)
	}
	for _, w := range rest {
		g.sim.Schedule(0, w)
	}
}

// Fail fires the signal with an error attached. Waiters observe the error
// through Err.
func (g *Signal) Fail(err error) {
	if g.fired {
		return
	}
	g.failedAt = err
	g.FireValue(nil)
}

// OnFire registers fn to run when the signal fires; waiters run in
// registration order. If the signal already fired, fn is scheduled to run
// at the current instant.
func (g *Signal) OnFire(fn func()) {
	switch {
	case g.fired:
		g.sim.Schedule(0, fn)
	case g.first == nil:
		g.first = fn
	default:
		g.waiters = append(g.waiters, fn)
	}
}

// AllOf returns a signal that fires once every input signal has fired.
// With no inputs the result fires immediately upon first event processing.
func AllOf(s *Simulator, signals ...*Signal) *Signal {
	out := s.NewSignal()
	remaining := len(signals)
	if remaining == 0 {
		// Fire on next dispatch so callers can register waiters first.
		s.Schedule(0, out.Fire)
		return out
	}
	var firstErr error
	for _, g := range signals {
		g := g
		g.OnFire(func() {
			if firstErr == nil && g.Err() != nil {
				firstErr = g.Err()
			}
			remaining--
			if remaining == 0 {
				if firstErr != nil {
					out.Fail(firstErr)
				} else {
					out.Fire()
				}
			}
		})
	}
	return out
}

// AnyOf returns a signal that fires as soon as any input signal fires.
func AnyOf(s *Simulator, signals ...*Signal) *Signal {
	out := s.NewSignal()
	for _, g := range signals {
		g := g
		g.OnFire(func() {
			if g.Err() != nil {
				out.Fail(g.Err())
			} else {
				out.FireValue(g.Value())
			}
		})
	}
	return out
}
