// Package pipeline implements the multi-path transfer engine the paper
// builds on (Sojoodi et al., ExHET'24 [35]): a single GPU-to-GPU message is
// split across several paths, and staged paths move their share as a
// pipeline of chunks through a three-step process per chunk:
//
//  1. copy the chunk from the source GPU to the staging location,
//  2. synchronize to ensure the chunk has arrived,
//  3. copy the chunk from the staging location to the destination GPU.
//
// Each staged path uses two CUDA streams (one per leg) ordered by events,
// so consecutive chunks overlap: while chunk c crosses the second leg,
// chunk c+1 crosses the first. Staging memory is a small ring buffer; the
// first leg stalls when all slots hold chunks not yet drained by the
// second leg.
//
// Paths are initiated sequentially by the issuing CPU thread; each path's
// initiation occupies the CPU for the first leg's launch latency, which is
// why Algorithm 1 accumulates earlier paths' α into later paths' Δ.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrNonPositiveBytes is returned by Engine.Execute (and Compile) for
// plans whose byte count is zero, negative, or non-finite — sizes that
// would otherwise surface later as NaN bandwidths or empty transfers.
var ErrNonPositiveBytes = errors.New("pipeline: non-positive transfer size")

// Config tunes the engine.
type Config struct {
	// StagingSlots is the ring-buffer depth per staged path (chunks that
	// may be in flight between the two legs). Default 2 (double buffering).
	StagingSlots int
	// SequentialInitiation serializes path launches on the issuing CPU
	// (matches Algorithm 1 line 18). Disabling it is an ablation.
	SequentialInitiation bool
}

// DefaultConfig returns the runtime configuration.
func DefaultConfig() Config {
	return Config{StagingSlots: 2, SequentialInitiation: true}
}

// Engine executes multi-path transfer plans on a simulated CUDA runtime.
type Engine struct {
	rt  *cuda.Runtime
	cfg Config
	// tr, when set, records per-path execution spans and per-chunk
	// completion instants. Attach before executing; nil costs one pointer
	// check per path launch.
	tr *obs.Tracer
}

// New creates an engine.
func New(rt *cuda.Runtime, cfg Config) *Engine {
	if cfg.StagingSlots <= 0 {
		cfg.StagingSlots = 2
	}
	return &Engine{rt: rt, cfg: cfg}
}

// Runtime returns the engine's CUDA runtime.
func (e *Engine) Runtime() *cuda.Runtime { return e.rt }

// AttachTracer wires span tracing into the engine: each active path of an
// executed plan records a span on its "path:<name>" track, and staged
// chunk completions record instants. Attach before issuing transfers (the
// field is read from simulation callbacks); attaching nil detaches.
func (e *Engine) AttachTracer(tr *obs.Tracer) { e.tr = tr }

// Result tracks one executed transfer.
type Result struct {
	Plan    *core.Plan
	Started sim.Time
	Done    *sim.Signal
	// PathDone records each path's completion time (indexed like
	// Plan.Paths; zero-share paths stay at -1).
	PathDone []sim.Time
	// PathErr records each path's failure, nil for paths that delivered
	// their share (indexed like Plan.Paths). Failover layers use it to
	// classify which paths to exclude and how many bytes actually arrived.
	PathErr []error
}

// Elapsed returns the end-to-end transfer time. Valid once Done fires;
// zero before then (never negative).
func (r *Result) Elapsed() float64 {
	if !r.Done.Fired() {
		return 0
	}
	el := r.Done.FiredAt() - r.Started
	if el < 0 {
		return 0
	}
	return el
}

// Bandwidth returns achieved bytes/second. Zero-byte and zero-elapsed
// transfers report 0 rather than NaN or Inf.
func (r *Result) Bandwidth() float64 {
	el := r.Elapsed()
	if el <= 0 || r.Plan == nil || r.Plan.Bytes <= 0 {
		return 0
	}
	return r.Plan.Bytes / el
}

// validatePlan applies the shared sanity checks of Execute, Compile and
// UpdateTo and returns the plan's number of active paths.
func validatePlan(plan *core.Plan) (int, error) {
	if plan == nil || len(plan.Paths) == 0 {
		return 0, fmt.Errorf("pipeline: empty plan")
	}
	if plan.Bytes <= 0 || math.IsNaN(plan.Bytes) || math.IsInf(plan.Bytes, 0) {
		return 0, fmt.Errorf("%w: %v bytes", ErrNonPositiveBytes, plan.Bytes)
	}
	active := 0
	for i := range plan.Paths {
		if plan.Paths[i].Bytes > 0 {
			active++
		}
	}
	if active == 0 {
		return 0, fmt.Errorf("pipeline: plan has no active paths")
	}
	return active, nil
}

// Execute runs the plan. The returned result's Done signal fires when the
// last byte of the last path arrives at the destination.
func (e *Engine) Execute(plan *core.Plan) (*Result, error) {
	return e.ExecuteSpan(plan, obs.NoSpan)
}

// newResult starts a Result for plan at the current instant, with every
// path's completion time at -1.
func newResult(plan *core.Plan, now sim.Time) Result {
	res := Result{
		Plan:     plan,
		Started:  now,
		PathDone: make([]sim.Time, len(plan.Paths)),
		PathErr:  make([]error, len(plan.Paths)),
	}
	for i := range res.PathDone {
		res.PathDone[i] = -1
	}
	return res
}

// execRun is the record behind one eager execution: the Result handed to
// the caller, the all-paths completion its Done points at, and one
// pathRun per active path.
type execRun struct {
	Result
	e         *Engine
	parent    obs.SpanID
	done      sim.Signal
	remaining int // active paths not yet final
	firstErr  error
	paths     []pathRun
}

// pathRun is one active path of an eager execution and the handler of
// every callback the path needs, so a path costs this record instead of a
// closure per callback.
type pathRun struct {
	run   *execRun
	idx   int // index into Plan.Paths
	pp    *core.PathPlan
	final sim.Signal
	trace *pathTrace // set only with a tracer attached

	last   *sim.Signal // the copy whose completion completes the path
	buf    stagingBuffer
	chunks []chunkSigs
}

// pathTrace is a traced path's span, track and chunk sizes.
type pathTrace struct {
	span  obs.SpanID
	trk   string
	sizes []float64
}

// chunkSigs holds one staged chunk's leg completions until they are
// watched, and the event its ring slot is drained at.
type chunkSigs struct {
	up, down *sim.Signal
	drained  cuda.Event
}

// pathRun handler arguments: chunk index << pathShift | stage.
const pathShift = 4

const (
	pStart      = iota // the path's (possibly offset) initiation
	pRecord            // final fired: record it and count it toward the transfer
	pSpanEnd           // final fired: close the path's trace span
	pFree              // final fired: free the staging buffer
	pLast              // the last copy completed: complete the path
	pWatchUp           // a chunk's first leg completed
	pWatchDown         // a chunk's second leg completed
	pTraceChunk        // a chunk landed: trace it
)

// ExecuteSpan is Execute with an explicit trace parent: per-path execution
// spans are parented under the caller's span (typically a transfer or
// attempt span). With no tracer attached it behaves exactly like Execute.
func (e *Engine) ExecuteSpan(plan *core.Plan, parent obs.SpanID) (*Result, error) {
	active, err := validatePlan(plan)
	if err != nil {
		return nil, err
	}
	s := e.rt.Sim()
	run := &execRun{Result: newResult(plan, s.Now()), e: e, parent: parent, remaining: active}
	run.done.Init(s)
	run.Done = &run.done
	run.paths = make([]pathRun, 0, active)
	offset := 0.0
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		run.paths = append(run.paths, pathRun{run: run, idx: i, pp: pp})
		p := &run.paths[len(run.paths)-1]
		p.final.Init(s)
		p.final.OnFireHandler(p, pRecord)
		if e.cfg.SequentialInitiation {
			s.ScheduleHandler(offset, p, pStart)
			offset += pp.Param.Legs[0].Alpha
		} else {
			s.ScheduleHandler(0, p, pStart)
		}
	}
	return &run.Result, nil
}

// Handle runs one of the path's callbacks.
func (p *pathRun) Handle(arg int) {
	c, stage := arg>>pathShift, arg&(1<<pathShift-1)
	e := p.run.e
	switch stage {
	case pStart:
		if e.tr != nil {
			p.trace = &pathTrace{trk: "path:" + p.pp.Path.String()}
			p.trace.span = e.tr.Begin(p.trace.trk, "path", p.pp.Path.Kind.String(), p.run.parent,
				obs.KVf("bytes", p.pp.Bytes), obs.KVi("chunks", int64(p.pp.Chunks)))
			p.final.OnFireHandler(p, pSpanEnd)
		}
		if _, err := e.writePath(p.pp, nil, p); err != nil {
			p.final.Fail(err)
		}
	case pRecord:
		r := p.run
		err := p.final.Err()
		r.PathDone[p.idx] = e.rt.Sim().Now()
		r.PathErr[p.idx] = err
		if r.firstErr == nil && err != nil {
			r.firstErr = err
		}
		r.remaining--
		if r.remaining == 0 {
			if r.firstErr != nil {
				r.done.Fail(r.firstErr)
				return
			}
			r.done.Fire()
		}
	case pSpanEnd:
		if err := p.final.Err(); err != nil {
			e.tr.EndWith(p.trace.span, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
			return
		}
		e.tr.EndWith(p.trace.span, obs.KV("outcome", "ok"))
	case pFree:
		_ = p.buf.Free()
		p.buf = nil
	case pLast:
		err := p.last.Err()
		p.last = nil
		if err != nil {
			p.final.Fail(err)
			return
		}
		p.final.Fire()
	case pWatchUp, pWatchDown:
		// Any chunk copy failing on either leg fails the path: the
		// simulator has no notion of the data a chunk carried, so a lost
		// first-leg chunk cannot be silently "made up" by the second leg
		// completing.
		ch := &p.chunks[c]
		sig := ch.up
		if stage == pWatchUp {
			ch.up = nil
		} else if sig = ch.down; e.tr == nil {
			ch.down = nil // else the trace callback still reads it
		}
		if err := sig.Err(); err != nil {
			p.final.Fail(err)
		}
	case pTraceChunk:
		down := p.chunks[c].down
		p.chunks[c].down = nil
		if down.Err() == nil {
			e.tr.Instant(p.trace.trk, "chunk", "chunk-done",
				obs.KVi("index", int64(c)), obs.KVf("bytes", p.trace.sizes[c]))
		}
	}
}

// stagingBuffer is a staging ring: device memory on the intermediate GPU
// or pinned host memory.
type stagingBuffer interface{ Free() error }

// allocStaging allocates size bytes of staging ring for a staged path: on
// its intermediate GPU, or pinned in host memory of its NUMA domain.
func (e *Engine) allocStaging(path hw.Path, size float64) (stagingBuffer, error) {
	var buf stagingBuffer
	var err error
	if path.Kind == hw.GPUStaged {
		buf, err = e.rt.Device(path.Via).Malloc(size)
	} else {
		buf, err = e.rt.Host(path.Via).MallocHost(size)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: staging alloc for path %v: %w", path, err)
	}
	return buf, nil
}

// openStream opens a stream on dev: a live one, or one capturing into g.
func openStream(g *cuda.Graph, dev *cuda.Device, name string) *cuda.Stream {
	if g != nil {
		return g.CaptureStream(dev, name)
	}
	return dev.NewStream(name)
}

// copyLeg enqueues one chunk's first (up) or second leg of a staged path
// on st.
func (e *Engine) copyLeg(st *cuda.Stream, path hw.Path, up bool, bytes float64) *sim.Signal {
	switch {
	case path.Kind == hw.GPUStaged && up:
		return st.MemcpyPeerAsync(e.rt.Device(path.Via), bytes)
	case path.Kind == hw.GPUStaged:
		return st.MemcpyPeerAsync(e.rt.Device(path.Dst), bytes)
	case up:
		return st.MemcpyToHostAsync(path.Via, bytes)
	default:
		return st.MemcpyFromHostAsync(path.Via, bytes)
	}
}

// writePath writes one active path's copy schedule, the single schedule
// both execution modes share: a direct path is one copy; a staged path is
// the three-step chunk pipeline between two streams, with the ring-buffer
// wait before each chunk's first leg and a cross-stream event edge before
// its second.
//
// With g nil the schedule goes onto live streams for the eager execution
// p, which adds the staging synchronization cost ε before every second
// leg and watches every copy's completion; p.final fires when the last
// chunk lands. Otherwise it is captured into g, where the leg-2
// dependency is a baked edge rather than a runtime synchronization, and
// the returned compiledPath lists the copy nodes for patching. The staging
// ring is allocated for the execution (p.buf) or the compiled path.
func (e *Engine) writePath(pp *core.PathPlan, g *cuda.Graph, p *pathRun) (compiledPath, error) {
	path := pp.Path
	src := e.rt.Device(path.Src)
	var out compiledPath
	switch path.Kind {
	case hw.Direct:
		sig := openStream(g, src, "direct").MemcpyPeerAsync(e.rt.Device(path.Dst), pp.Bytes)
		if g == nil {
			p.last = sig
			sig.OnFireHandler(p, pLast)
			return out, nil
		}
		out.leg1 = []int{g.NodeCount() - 1}
		return out, sig.Err()
	case hw.GPUStaged, hw.HostStaged:
	default:
		return out, fmt.Errorf("pipeline: unknown path kind %v", path.Kind)
	}
	sizes := SplitChunks(pp.Bytes, pp.Chunks)
	out.slots = min(e.cfg.StagingSlots, len(sizes))
	out.slotBytes = pp.Bytes / float64(len(sizes))
	buf, err := e.allocStaging(path, out.slotBytes*float64(out.slots))
	if err != nil {
		return out, err
	}
	s1 := openStream(g, src, "stage-up")
	downDev := e.rt.Device(path.Dst)
	if path.Kind == hw.GPUStaged {
		downDev = e.rt.Device(path.Via)
	}
	s2 := openStream(g, downDev, "stage-down")
	chunks := make([]chunkSigs, len(sizes))
	if g == nil {
		p.buf, p.chunks = buf, chunks
		if e.tr != nil {
			p.trace.sizes = sizes
		}
	} else {
		out.buf = buf
		out.leg1, out.leg2 = make([]int, len(sizes)), make([]int, len(sizes))
	}
	for c, sz := range sizes {
		ch := &chunks[c]
		// Ring buffer: reuse slot c mod slots — wait until the chunk that
		// previously occupied it has been drained by the second leg.
		if c >= out.slots {
			s1.WaitEvent(chunks[c-out.slots].drained)
		}
		ch.up = e.copyLeg(s1, path, true, sz)
		if g == nil {
			ch.up.OnFireHandler(p, c<<pathShift|pWatchUp)
		} else if err := ch.up.Err(); err != nil {
			return out, err
		} else {
			out.leg1[c] = g.NodeCount() - 1
		}
		s2.WaitEvent(s1.RecordEvent())
		if eps := pp.Param.Eps; g == nil && eps > 0 {
			s2.Delay(eps) // step 2: staging synchronization cost ε
		}
		ch.down = e.copyLeg(s2, path, false, sz)
		if g == nil {
			if c < len(sizes)-1 {
				ch.down.OnFireHandler(p, c<<pathShift|pWatchDown)
			}
			if e.tr != nil {
				ch.down.OnFireHandler(p, c<<pathShift|pTraceChunk)
			}
		} else if err := ch.down.Err(); err != nil {
			return out, err
		} else {
			out.leg2[c] = g.NodeCount() - 1
		}
		ch.drained = s2.RecordEvent()
	}
	if g != nil {
		return out, nil
	}
	p.last = chunks[len(sizes)-1].down
	p.last.OnFireHandler(p, pLast)
	for c := range chunks {
		chunks[c].drained = cuda.Event{}
	}
	p.final.OnFireHandler(p, pFree)
	return out, nil
}
