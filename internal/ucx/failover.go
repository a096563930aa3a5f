package ucx

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// The transfer executor. Every rendezvous transfer, from Put or
// StartTransfer, is an mpRun built by newRun: a run of attempts, where an
// attempt is one plan in flight — the whole undelivered residual, or one
// feeder's pool chunk. One completion handler (onAttempt) credits what
// each path delivered, excludes retryable failed paths and surfaces fatal
// errors; one retry stage re-plans the pool after backoff and begins
// again; and every attempt executes through execPlan, where compiled
// graphs are a backend under the eager engine.
//
// Failover: a rendezvous transfer no longer dies with the first path that
// fails under it. Path errors are classified — a link going down or staging
// memory exhaustion is path-local and retryable; anything else (no route,
// malformed plan) is fatal. On a retryable failure the transfer is
// re-planned with the failed paths excluded, the bytes that healthy paths
// already delivered are credited, and the residual is retried after a
// capped exponential backoff in simulated time. Re-plans read live link
// capacities (the parameter source queries the fluid network at plan time),
// so a degraded-but-alive link is re-weighted rather than excluded.
//
// With AdaptSegments > 1 the transfer additionally runs in adaptive
// chunk-pool mode: the model's plan picks the paths and their relative
// shares, but bytes are handed out late, as a pool of variable-size chunks
// that per-path feeders pull from. A feeder on a degraded link simply pulls
// more slowly, so the byte split tracks live capacity without any explicit
// re-planning; a feeder whose link dies returns its in-flight bytes to the
// pool for the survivors. Chunk sizes follow guided self-scheduling: large
// while the pool is full (amortizing per-chunk latency), shrinking
// geometrically toward the end, and finish-time balanced so the last bytes
// drain on all paths in parallel rather than queuing behind one. When the
// runtime is told about a fault (Context.NotifyFault), live feeders pick up
// re-planned rates immediately, shifting subsequent chunks off the degraded
// link without waiting for its slowdown to show up in pull order.

// retryablePathError classifies a path failure: true means the path is
// worth excluding and the transfer retried over the survivors.
func retryablePathError(err error) bool {
	return errors.Is(err, fluid.ErrLinkDown) || errors.Is(err, cuda.ErrOutOfMemory)
}

const (
	// feederDepth is how many chunks a feeder keeps in flight. Two: while
	// one chunk's staging legs drain, the next chunk's first leg runs, so
	// staged paths stay pipelined across chunk boundaries.
	feederDepth = 2
	// chunkDiv controls guided self-scheduling: a feeder's next chunk is
	// its share of pool/chunkDiv, so early chunks are large and the tail
	// shrinks geometrically.
	chunkDiv = 2.0
	// minChunkTime floors the chunk size in wall time: a feeder never
	// pulls a chunk shorter than this at its predicted rate, keeping
	// per-chunk latency amortized, while slow paths still get small byte
	// counts and cannot become tail stragglers.
	minChunkTime = 10e-6
)

// Failover backoff: the first retry waits failoverBackoff (simulated
// seconds); each further consecutive attempt doubles the wait, up to
// failoverBackoffCap.
const (
	failoverBackoff    = 20.0e-6
	failoverBackoffCap = 2.0e-3
)

// mpRun is one rendezvous transfer: a run of attempts, each one plan in
// flight — the whole undelivered residual, or one feeder's pool chunk.
// It lives entirely inside simulator callbacks after launch, so no
// locking is needed beyond the context's own.
type mpRun struct {
	c          *Context
	src, dst   int
	sel        hw.PathSet
	concurrent [][2]int
	req        *Request

	total       float64 // bytes the request must deliver
	delivered   float64 // bytes confirmed delivered
	outstanding float64 // bytes in flight across attempts
	segBytes    float64 // max chunk size; 0 = single whole-residual attempts
	excluded    map[hw.Path]bool
	attempt     int  // consecutive failed attempts
	paused      bool // backing off after a failure; no new launches
	done        bool // request settled

	feeders []*mpFeeder
	lastErr error // most recent retryable failure, for the final report

	// inflight marks a run counted in the context's in-flight pairs; the
	// count is released exactly once, before Done fires.
	inflight bool

	// whole is the whole-residual attempt; at most one is in flight, so
	// the run keeps its record.
	whole       attempt
	backoffSpan obs.SpanID

	// span is the transfer's root trace span and trk its trace track
	// (NoSpan/"" when tracing is off); attempt, backoff, and failover
	// events nest under it.
	span obs.SpanID
	trk  string
}

// attempt is one plan in flight and the handler of its completion. A
// whole-residual attempt (f nil) runs a planner plan and has its own
// trace span; a pool chunk runs on its feeder's path as the one-path plan
// the record holds.
type attempt struct {
	r   *mpRun
	f   *mpFeeder
	pl  *core.Plan
	res *pipeline.Result
	sp  obs.SpanID

	chunk core.Plan
	path  [1]core.PathPlan
}

// Handle runs the attempt's completion.
func (a *attempt) Handle(int) { a.r.onAttempt(a) }

// newRun builds the run of one rendezvous transfer — the constructor
// behind both Put and StartTransfer — and plans its first attempt into
// req.Plan. When that plan fails the request settles failed at once,
// closing its trace span and gauges, and the error is returned.
func (c *Context) newRun(req *Request, src, dst int, sel hw.PathSet, concurrent [][2]int) (*mpRun, error) {
	r := &mpRun{c: c, src: src, dst: dst, sel: sel, concurrent: concurrent, req: req, total: req.Bytes}
	r.whole.r = r
	if c.tracer != nil {
		r.span, r.trk = req.span, xferTrack(src, dst)
	}
	r.initSegments(req.Bytes)
	if _, err := r.plan(req.Bytes); err != nil {
		r.finish(err)
		return nil, err
	}
	req.Multipath = true
	c.trackRun(r)
	return r, nil
}

// mpRun handler arguments.
const (
	mpBegin = iota // setup elapsed: launch the first plan (req.Plan)
	mpRetry        // backoff elapsed: re-plan the pool and launch again
)

// Handle runs the run's scheduled stages.
func (r *mpRun) Handle(stage int) {
	if stage == mpBegin {
		r.begin(r.req.Plan)
		return
	}
	r.c.tracer.End(r.backoffSpan)
	r.paused = false
	if r.done {
		return
	}
	pl, err := r.plan(r.pool())
	if err != nil {
		r.finish(err)
		return
	}
	r.begin(pl)
}

// mpFeeder pulls chunks from the pool onto one path.
type mpFeeder struct {
	r        *mpRun
	path     hw.Path
	tmpl     core.PathPlan // planner-produced template (params, chunking)
	rate     float64       // model-predicted bandwidth on this path, bytes/s
	lastDur  float64       // expected duration of the last issued chunk
	inflight int
	queued   float64 // bytes in flight on this feeder
	primed   bool    // second chunk issued; window now completion-driven
	ticking  bool    // the priming timer is pending
	dead     bool
	// graph is the feeder-private compiled transfer graph (nil unless
	// Config.GraphsEnable): patched per chunk when only sizes changed,
	// recompiled when the chunk structure changed. See Context.execPlan.
	graph *pipeline.CompiledPlan
}

// initSegments decides whether the transfer runs in chunk-pool mode.
func (r *mpRun) initSegments(bytes float64) {
	segs := r.c.cfg.AdaptSegments
	if segs <= 1 || bytes < r.c.cfg.AdaptMinBytes {
		return
	}
	gran := r.c.cfg.ModelOptions.Granularity
	if gran < 1 {
		gran = 1
	}
	r.segBytes = math.Ceil(bytes/float64(segs)/gran) * gran
}

// pool is the byte count not yet delivered or in flight.
func (r *mpRun) pool() float64 {
	return r.total - r.delivered - r.outstanding
}

// plan computes the configuration for an n-byte attempt against current
// link state and the exclusion set, and records it as the request's plan.
func (r *mpRun) plan(n float64) (*core.Plan, error) {
	pl, err := r.c.planWith(r.src, r.dst, n, r.sel, r.concurrent, r.excluded, r.span)
	if err != nil {
		return nil, err
	}
	r.req.Plan = pl
	return pl, nil
}

// begin launches a planned attempt: the whole residual by default, feeders
// over the plan's paths when segmentation is configured.
func (r *mpRun) begin(pl *core.Plan) {
	if r.segBytes > 0 {
		r.spawnFeeders(pl)
		return
	}
	a := &r.whole
	a.pl, a.sp = pl, obs.NoSpan
	if tr := r.c.tracer; tr != nil {
		a.sp = tr.Begin(r.trk, "xfer", "attempt", r.span,
			obs.KVf("bytes", pl.Bytes), obs.KVi("attempt", int64(r.attempt)))
	}
	r.launch(a)
}

// launch puts an attempt's plan in flight (a pool chunk through its
// feeder's private graph slot, the whole residual through the shared graph
// cache) and reports whether it did; a launch error settles the run.
func (r *mpRun) launch(a *attempt) bool {
	var slot **pipeline.CompiledPlan
	parent := a.sp
	if a.f != nil {
		slot, parent = &a.f.graph, r.span
	}
	res, err := r.c.execPlan(a.pl, slot, parent)
	if err != nil {
		r.c.tracer.EndWith(a.sp, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
		r.finish(err)
		return false
	}
	r.outstanding += a.pl.Bytes
	if f := a.f; f != nil {
		f.inflight++
		f.queued += a.pl.Bytes
	}
	a.res = res
	res.Done.OnFireHandler(a, 0)
	return true
}

// onAttempt handles one attempt's outcome: credit the bytes each path
// delivered, exclude the paths that failed retryably, and surface a fatal
// path error. Whole-residual attempts feed the recalibration observer (a
// pool chunk carries its template's prediction, not one of its own) and
// fail over by re-planning the residual after backoff while retries last.
// A failed pool chunk kills its feeder and returns its bytes to the pool
// for the survivors; the pool is re-planned after backoff once no feeder
// is left.
func (r *mpRun) onAttempt(a *attempt) {
	pl, res, f := a.pl, a.res, a.f
	a.pl, a.res = nil, nil
	c := r.c
	err := res.Done.Err()
	if tr := c.tracer; tr != nil && f == nil {
		if err != nil {
			tr.EndWith(a.sp, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
		} else {
			tr.EndWith(a.sp, obs.KV("outcome", "ok"))
		}
	}
	if r.done {
		return
	}
	if f != nil {
		f.inflight--
		f.queued -= pl.Bytes
	} else if c.observer != nil {
		for i := range pl.Paths {
			pp := &pl.Paths[i]
			if pp.Bytes > 0 && res.PathErr[i] == nil && res.PathDone[i] >= 0 {
				c.observer.Record(pp.Path.Kind, pp.Predicted, res.PathDone[i]-res.Started)
			}
		}
	}
	r.outstanding -= pl.Bytes
	if err == nil {
		r.delivered += pl.Bytes
		r.attempt = 0
		if f != nil {
			f.pump()
		}
		r.settle()
		return
	}

	// A dead feeder's path is already excluded, and with failover off a
	// pool chunk's failure ends the run before any exclusion.
	canExclude := f == nil || (c.cfg.FailoverEnable && !f.dead)
	var fatal error
	newExcl := 0
	for i := range pl.Paths {
		pp := &pl.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		perr := res.PathErr[i]
		switch {
		case perr == nil:
			r.delivered += pp.Bytes
		case !retryablePathError(perr):
			if fatal == nil {
				fatal = perr
			}
		case canExclude && r.exclude(pp.Path):
			newExcl++
		}
	}
	if fatal != nil {
		r.finish(fatal)
		return
	}
	if f == nil {
		if !c.cfg.FailoverEnable || r.attempt >= c.cfg.FailoverMaxRetries {
			r.finish(err)
			return
		}
		r.attempt++
		r.noteFailover(newExcl)
		r.backoff()
		return
	}
	r.lastErr = err
	if !f.dead {
		f.dead = true
		f.releaseGraph()
		if !c.cfg.FailoverEnable {
			r.finish(err)
			return
		}
		r.noteFailover(newExcl)
		// Give surviving feeders the dead feeder's returned bytes.
		for _, g := range r.feeders {
			if !g.dead {
				g.pump()
			}
		}
	}
	r.settle()
}

// exclude records a failed path; reports whether it is newly excluded.
func (r *mpRun) exclude(p hw.Path) bool {
	if r.excluded == nil {
		r.excluded = make(map[hw.Path]bool)
	}
	if r.excluded[p] {
		return false
	}
	r.excluded[p] = true
	r.c.tracer.Instant(r.trk, "failover", "path-excluded", obs.KV("path", p.String()))
	return true
}

// noteFailover bumps the retry/failover counters for one recovery step.
func (r *mpRun) noteFailover(newExcl int) {
	r.req.Retries++
	r.c.retries.Add(1)
	r.req.Failovers += newExcl
	r.c.failovers.Add(int64(newExcl))
	r.c.met.retries.Inc()
	r.c.met.failovers.Add(int64(newExcl))
	r.c.tracer.Instant(r.trk, "failover", "failover",
		obs.KVi("attempt", int64(r.attempt)), obs.KVi("excluded", int64(newExcl)))
	// Plans computed before the fault are stale (they were solved against
	// the old capacities); drop them all so the re-plan — and any other
	// transfer planning after this instant — sees live link state.
	r.c.model.InvalidateCache()
	// Compiled graphs routing over the excluded paths are equally stale;
	// graphs that avoid them keep their instantiation.
	r.c.invalidateGraphsFor(r.excluded)
}

// backoff schedules the retry stage after the capped exponential backoff
// for the current attempt, pausing launches until it runs.
func (r *mpRun) backoff() {
	c := r.c
	delay := failoverBackoff
	for a := 1; a < r.attempt; a++ {
		delay *= 2
	}
	delay = min(delay, failoverBackoffCap)
	sp := obs.NoSpan
	if tr := c.tracer; tr != nil {
		sp = tr.Begin(r.trk, "failover", "backoff", r.span,
			obs.KVf("delay_s", delay), obs.KVi("attempt", int64(r.attempt)))
	}
	r.paused = true
	r.backoffSpan = sp
	c.rt.Sim().ScheduleHandler(delay, r, mpRetry)
}

// spawnFeeders starts chunk-pool execution over the attempt plan's paths.
// The plan contributes the path set and the relative shares; actual byte
// placement is decided chunk by chunk against live progress.
func (r *mpRun) spawnFeeders(pl *core.Plan) {
	r.feeders = r.feeders[:0]
	for i := range pl.Paths {
		pp := &pl.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		r.feeders = append(r.feeders, newFeeder(r, pp))
	}
	if len(r.feeders) == 0 {
		r.finish(fmt.Errorf("plan for %v bytes has no usable paths", pl.Bytes))
		return
	}
	for _, f := range r.feeders {
		f.pump()
	}
}

// newFeeder builds a feeder over one planned path.
func newFeeder(r *mpRun, pp *core.PathPlan) *mpFeeder {
	f := &mpFeeder{r: r, path: pp.Path, tmpl: *pp}
	if pp.Predicted > 0 {
		f.rate = pp.Bytes / pp.Predicted
	}
	return f
}

// chunkFor sizes the next chunk for a feeder: its rate share of
// pool/chunkDiv, floored so latency amortizes and capped at the configured
// segment size.
func (r *mpRun) chunkFor(f *mpFeeder) float64 {
	p := r.pool()
	if p <= 0.5 {
		return 0
	}
	liveRate := 0.0
	for _, g := range r.feeders {
		if !g.dead {
			liveRate += g.rate
		}
	}
	n := p / chunkDiv
	if liveRate > 0 {
		n *= f.rate / liveRate
	}
	if lo := f.rate * minChunkTime; n < lo {
		n = lo
	}
	if n < 64*1024 {
		n = 64 * 1024
	}
	if n > r.segBytes {
		n = r.segBytes
	}
	if n > p {
		n = p
	}
	// Finish-time balancing: the remaining work ideally completes in
	// (undelivered bytes)/liveRate from now. A chunk that would keep this
	// path busy past that horizon becomes the transfer's tail straggler,
	// so trim it to the horizon — the pool's last bytes then drain on all
	// paths in parallel instead of queuing behind one.
	if liveRate > 0 && f.rate > 0 {
		horizon := (p + r.outstanding) / liveRate
		if budget := horizon - f.queued/f.rate; n > f.rate*budget {
			n = f.rate * budget
		}
	}
	if n <= 0 {
		return 0
	}
	return n
}

// pump keeps a feeder's chunk window full. The very first top-up to two
// chunks is deferred by half a chunk duration: two chunks issued at the
// same instant move in lockstep (on a staged path both first legs contend,
// then both second legs, leaving each leg idle half the time), while
// offset chunks alternate legs and keep both busy. Once offset, the
// completion-driven issues that follow preserve the alternation.
func (f *mpFeeder) pump() {
	r := f.r
	for !r.done && !r.paused && !f.dead && f.inflight < feederDepth {
		if f.inflight > 0 && !f.primed {
			if !f.ticking && f.lastDur > 0 {
				f.ticking = true
				r.c.rt.Sim().ScheduleHandler(0.5*f.lastDur, f, 0)
			}
			return
		}
		n := r.chunkFor(f)
		if n <= 0 {
			return
		}
		if f.rate > 0 {
			f.lastDur = n / f.rate
		}
		a := &attempt{r: r, f: f}
		a.path[0] = f.tmpl
		pp := &a.path[0]
		pp.Bytes = n
		// Keep the planner's inner chunk size, not its inner chunk count:
		// a small pool chunk re-split into the template's full count would
		// produce slivers too small to amortize launch latency.
		if pp.Chunks > 1 && f.tmpl.Bytes > 0 {
			inner := f.tmpl.Bytes / float64(f.tmpl.Chunks)
			pp.Chunks = int(math.Round(n / inner))
		}
		if pp.Chunks < 1 {
			pp.Chunks = 1
		}
		a.chunk = core.Plan{Src: r.src, Dst: r.dst, Bytes: n, Paths: a.path[:]}
		a.pl = &a.chunk
		if !r.launch(a) {
			return
		}
	}
}

// Handle ends the priming delay: the feeder's window may now fill.
func (f *mpFeeder) Handle(int) {
	f.ticking = false
	f.primed = true
	f.pump()
}

// settle finishes or restarts a run once nothing is in flight: success
// when every byte is delivered, idle live feeders topped up, otherwise a
// re-planned attempt after backoff (all feeders died with bytes still
// pooled).
func (r *mpRun) settle() {
	if r.done || r.paused {
		return
	}
	inflight := 0
	live := 0
	for _, f := range r.feeders {
		inflight += f.inflight
		if !f.dead {
			live++
		}
	}
	if inflight > 0 {
		return
	}
	if r.pool() <= 0.5 && r.delivered >= r.total-0.5 {
		r.finish(nil)
		return
	}
	if live > 0 {
		// Feeders are alive but idle with bytes pooled; top them up.
		for _, f := range r.feeders {
			if !f.dead {
				f.pump()
			}
		}
		return
	}
	err := r.lastErr
	if err == nil {
		err = fmt.Errorf("no paths left with %v bytes undelivered", r.pool())
	}
	if r.attempt >= r.c.cfg.FailoverMaxRetries {
		r.finish(err)
		return
	}
	r.attempt++
	r.backoff()
}

// replanLive re-plans an in-flight chunk-pool transfer against current link
// state (Context.NotifyFault calls it when a fault event arrives): each live
// feeder whose path carries bytes in the fresh plan picks up that path's
// predicted rate, so chunk sizing shifts off a degraded link at once. The
// feeder set itself is unchanged. Whole-residual transfers ride the fault
// out and re-plan at the next attempt boundary.
func (r *mpRun) replanLive() {
	if r.done || r.paused || r.segBytes == 0 || len(r.feeders) == 0 {
		return
	}
	p := r.pool()
	if p <= 0.5 {
		return
	}
	pl, err := r.plan(p)
	if err != nil {
		// Keep draining on the stale plan; if paths actually break, the
		// chunk failure path handles it.
		return
	}
	for i := range pl.Paths {
		pp := &pl.Paths[i]
		if pp.Bytes <= 0 || pp.Predicted <= 0 {
			continue
		}
		for _, f := range r.feeders {
			if !f.dead && f.path == pp.Path {
				f.rate = pp.Bytes / pp.Predicted
			}
		}
	}
}

// finish settles the request. release runs before the Done signal so
// inflight accounting is consistent for anything planning on that edge.
func (r *mpRun) finish(err error) {
	if r.done {
		return
	}
	r.done = true
	r.c.untrackRun(r)
	for _, f := range r.feeders {
		f.releaseGraph()
	}
	if r.inflight {
		r.c.releaseInflight(r.src, r.dst)
	}
	if err != nil {
		r.req.Done.Fail(fmt.Errorf("ucx: multi-path transfer %d->%d: %w", r.src, r.dst, err))
		return
	}
	r.req.Done.Fire()
}

// StartTransfer plans and launches one engine-level transfer at the current
// simulated instant — no eager/rendezvous protocol overheads, no IPC setup
// cost — with the context's failover, segmentation, and recalibration
// machinery active. It is the primitive behind multipath.System.Transfer;
// Endpoint.Put remains the full-protocol entry point.
func (c *Context) StartTransfer(src, dst int, bytes float64, sel hw.PathSet) (*Request, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("ucx: transfer of %v bytes", bytes)
	}
	req := newRequest(c.rt.Sim(), bytes)
	c.beginTransferSpan(req, src, dst, "transfer")
	r, err := c.newRun(req, src, dst, sel, nil)
	if err != nil {
		return nil, err
	}
	r.begin(req.Plan)
	return req, nil
}
