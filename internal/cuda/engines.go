package cuda

import "repro/internal/sim"

// Copy-engine modeling. Real GPUs execute async copies on a small number
// of DMA (copy) engines — V100/A100-class parts expose a handful, and two
// is the practical limit for simultaneous peer copies in one direction.
// By default the simulation is permissive (unlimited engines, matching
// the analytical model's assumptions); SetCopyEngines imposes the cap so
// experiments can quantify how engine pressure tempers multi-path and
// collective gains.

// SetCopyEngines caps concurrent copies per device. n <= 0 removes the
// cap. The cap applies across all streams of a device: a copy reaching
// the head of its stream additionally waits for a free engine.
func (rt *Runtime) SetCopyEngines(n int) {
	for _, d := range rt.devices {
		d.setEngines(n)
	}
}

// engineSem is a FIFO counting semaphore over simulation handlers. A nil
// *engineSem is an uncapped device.
type engineSem struct {
	tokens int
	queue  []engineWaiter
}

// engineWaiter is a copy waiting for an engine.
type engineWaiter struct {
	h   sim.Handler
	arg int
}

func (d *Device) setEngines(n int) {
	if n <= 0 {
		d.engines = nil
		return
	}
	d.engines = &engineSem{tokens: n}
}

// acquire runs h.Handle(arg) once an engine is free: at once when
// uncapped or a token is free, otherwise at the release that hands one
// over. The holder must call release exactly once when its copy
// completes.
func (sem *engineSem) acquire(h sim.Handler, arg int) {
	if sem == nil {
		h.Handle(arg)
		return
	}
	if sem.tokens > 0 {
		sem.tokens--
		h.Handle(arg)
		return
	}
	sem.queue = append(sem.queue, engineWaiter{h, arg})
}

// release returns an engine, handing it directly to the next waiter at
// this instant.
func (sem *engineSem) release(s *sim.Simulator) {
	if sem == nil {
		return
	}
	if len(sem.queue) > 0 {
		next := sem.queue[0]
		sem.queue = sem.queue[1:]
		s.ScheduleHandler(0, next.h, next.arg)
		return
	}
	sem.tokens++
}

// EngineQueueDepth reports copies waiting for an engine (diagnostics).
func (d *Device) EngineQueueDepth() int {
	if d.engines == nil {
		return 0
	}
	return len(d.engines.queue)
}
