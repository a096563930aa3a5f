package ucx

// Observability wiring: when Config.Trace is set, the context owns a
// sim-clock obs.Tracer and an obs.Registry and threads them through every
// layer it drives — the planner (solve spans with cache outcomes), the
// pipeline engine (per-path spans, chunk instants), the CUDA runtime
// (graph launches), the recalibration observer (refit instants), and its
// own transfer lifecycle (transfer/attempt/backoff spans, failover
// instants). Disabled, every hook is a single nil pointer check.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// Histogram bucket boundaries for the transfer metrics: sim-time latency in
// seconds and achieved bandwidth in GB/s.
var (
	latencyBounds   = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
	bandwidthBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200}
)

// ctxMetrics caches the registry's hot-path metric pointers so recording
// never takes the registry lock. All fields are nil when tracing is off.
type ctxMetrics struct {
	started   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	retries   *obs.Counter
	failovers *obs.Counter
	faults    *obs.Counter
	inflight  *obs.Gauge
	latency   *obs.Histogram // end-to-end sim seconds per completed transfer
	gbps      *obs.Histogram // achieved GB/s per completed transfer
	predicted *obs.Histogram // model-predicted seconds per plan served
}

// initObs builds the tracer, registry, and metric set and attaches the
// tracer to every layer the context owns. Called from NewContext when
// Config.Trace is set.
func (c *Context) initObs() {
	c.tracer = obs.NewTracer(c.rt.Sim().Now)
	c.metrics = obs.NewRegistry()
	c.met = ctxMetrics{
		started:   c.metrics.Counter("transfers.started"),
		completed: c.metrics.Counter("transfers.completed"),
		failed:    c.metrics.Counter("transfers.failed"),
		retries:   c.metrics.Counter("failover.retries"),
		failovers: c.metrics.Counter("failover.paths_excluded"),
		faults:    c.metrics.Counter("faults.notified"),
		inflight:  c.metrics.Gauge("transfers.inflight"),
		latency:   c.metrics.Histogram("transfer.seconds", latencyBounds),
		gbps:      c.metrics.Histogram("transfer.gbps", bandwidthBounds),
		predicted: c.metrics.Histogram("plan.predicted_seconds", latencyBounds),
	}
	c.model.AttachTracer(c.tracer)
	c.engine.AttachTracer(c.tracer)
	c.rt.AttachTracer(c.tracer)
	if c.observer != nil {
		c.observer.AttachTracer(c.tracer)
	}
}

// Tracer returns the context's span tracer, or nil when Config.Trace is
// off. Callers may export it with WritePerfetto after a run drains.
func (c *Context) Tracer() *obs.Tracer { return c.tracer }

// Metrics returns the context's metrics registry, or nil when Config.Trace
// is off.
func (c *Context) Metrics() *obs.Registry { return c.metrics }

// xferTrack names the per-pair trace track a transfer's spans live on.
func xferTrack(src, dst int) string { return fmt.Sprintf("xfer:%d->%d", src, dst) }

// beginTransferSpan opens the root span of one transfer's lifecycle on the
// pair's track (req.span), records the start metrics, and arranges for the
// span and the completion metrics to settle when the request's Done signal
// fires. No-op when tracing is off.
func (c *Context) beginTransferSpan(req *Request, src, dst int, name string) {
	if c.tracer == nil {
		return
	}
	sp := c.tracer.Begin(xferTrack(src, dst), "xfer", name, obs.NoSpan,
		obs.KVf("bytes", req.Bytes))
	req.span = sp
	c.met.started.Inc()
	c.met.inflight.Add(1)
	req.Done.OnFire(func() {
		c.met.inflight.Add(-1)
		if err := req.Done.Err(); err != nil {
			c.met.failed.Inc()
			c.tracer.EndWith(sp,
				obs.KV("outcome", "error"), obs.KV("error", err.Error()),
				obs.KVi("retries", int64(req.Retries)), obs.KVi("failovers", int64(req.Failovers)))
			return
		}
		c.met.completed.Inc()
		el := req.Elapsed()
		c.met.latency.Observe(el)
		if el > 0 {
			c.met.gbps.Observe(req.Bytes / el / 1e9)
		}
		c.tracer.EndWith(sp,
			obs.KV("outcome", "ok"),
			obs.KVi("retries", int64(req.Retries)), obs.KVi("failovers", int64(req.Failovers)))
	})
}

// StatsSnapshot is the context's unified statistics export: the operation
// counters, the planner's configuration-cache statistics, the
// compiled-graph cache statistics (present only with graphs enabled), the
// recalibration observer's activity (present only with Recalibrate), and
// the obs metrics snapshot (present only with Trace). JSON field order and
// map-key order are deterministic.
type StatsSnapshot struct {
	Puts      int64 `json:"puts"`
	IpcOpens  int64 `json:"ipc_opens"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`

	PlanCache   core.CacheStats `json:"plan_cache"`
	CachedPlans int             `json:"cached_plans"`

	GraphCache   *GraphStats `json:"graph_cache,omitempty"`
	CachedGraphs int         `json:"cached_graphs,omitempty"`

	Observer *core.ObserverStats `json:"observer,omitempty"`

	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// StatsSnapshot captures every statistics domain the context owns behind
// one call. Cheap enough to take per run footer: counters are atomic loads.
func (c *Context) StatsSnapshot() StatsSnapshot {
	s := StatsSnapshot{
		Puts:        c.puts.Load(),
		IpcOpens:    c.ipcOpens.Load(),
		Retries:     c.retries.Load(),
		Failovers:   c.failovers.Load(),
		PlanCache:   c.model.Stats(),
		CachedPlans: c.model.CachedPlans(),
	}
	if c.graphs != nil {
		gs := c.GraphStats()
		s.GraphCache = &gs
		s.CachedGraphs = c.graphs.Len()
	}
	if c.observer != nil {
		os := c.observer.Stats()
		s.Observer = &os
	}
	if c.metrics != nil {
		// Derived hit-ratio gauges are refreshed at snapshot time — they
		// are quotients of the cache counters, not live-recorded values.
		if total := s.PlanCache.Hits + s.PlanCache.Misses; total > 0 {
			c.metrics.Gauge("plan_cache.hit_ratio").Set(float64(s.PlanCache.Hits) / float64(total))
		}
		if s.GraphCache != nil {
			if total := s.GraphCache.Hits + s.GraphCache.Misses; total > 0 {
				c.metrics.Gauge("graph_cache.hit_ratio").Set(float64(s.GraphCache.Hits) / float64(total))
			}
		}
		ms := c.metrics.Snapshot()
		s.Metrics = &ms
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with deterministic key
// order (encoding/json sorts map keys; struct fields keep declaration
// order).
func (s StatsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
