// Package ucx simulates the slice of the UCX communication framework the
// paper integrates with: a context holding transport state, per-process
// workers, endpoints between GPU pairs, an eager/rendezvous protocol
// switch, and the cuda_ipc transport with its IPC-handle translation
// cache.
//
// The paper's design (§4, Fig. 2a) hooks into the cuda_ipc module: when a
// transfer reaches it, the performance model computes the optimal
// multi-path configuration (Step 3-4) and forwards it to the pipeline
// engine (Step 5). This package reproduces that call path:
//
//	Endpoint.Put → (eager | rendezvous) → cuda_ipc → model.PlanTransfer →
//	pipeline.Engine.Execute
//
// Multi-path behaviour is controlled through environment-style variables
// (ParseConfig), mirroring how the real integration is toggled.
package ucx

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Config is the environment-derived configuration.
type Config struct {
	// MultipathEnable turns the model-driven multi-path engine on.
	MultipathEnable bool
	// PathSet names the candidate path selection: "direct", "2gpus",
	// "3gpus", "3gpus_host", "all".
	PathSet string
	// RndvThreshold is the eager/rendezvous switch point in bytes.
	RndvThreshold float64
	// Model options forwarded to the planner.
	ModelOptions core.Options
	// Engine configuration.
	EngineConfig pipeline.Config
	// Planner overrides the model-driven planner when non-nil (used for
	// the statically-tuned baseline, which replays offline search results
	// instead of evaluating the model).
	Planner Planner
	// BidirAware enables the contention-aware model extension: planning
	// assumes the mirror transfer runs concurrently and derates shared
	// links (fixes the host-staged BIBW over-prediction of Observation 5).
	BidirAware bool
	// PatternAwareMinBytes gates pattern-aware planning: hints are only
	// honored for transfers at least this large, where the steady-state
	// contention assumption holds (small transfers are startup-dominated
	// and plan better naively).
	PatternAwareMinBytes float64
	// LoadAware makes the transport self-observing: every multi-path Put
	// is planned around the transfers currently in flight on other GPU
	// pairs, with no explicit hints, which adapts collectives without
	// pattern knowledge. Each in-flight pair is charged the demand of its
	// own naive plan (θ × predicted bandwidth per path, at 64 MiB) on the
	// links it crosses, and a link keeps max(C − demand, C/(1+legs)), so
	// a plan moves only when that demand takes a link below its path's
	// bottleneck. It does not subsume BidirAware: on Beluga a reverse
	// 64 MiB Put charges the shared memory channel with its small host
	// share only, the host path stays PCIe-bound, and the Put plans and
	// runs as with LoadAware off. BIBW workloads want BidirAware, which
	// charges the mirror paths at full link speed. Gated by
	// PatternAwareMinBytes like explicit hints.
	LoadAware bool
	// FailoverEnable lets a rendezvous transfer survive path-local faults:
	// when a path fails mid-transfer with a retryable error (a link going
	// down, staging memory exhaustion), the transfer is re-planned with the
	// failed path excluded and the undelivered bytes are retried.
	FailoverEnable bool
	// FailoverMaxRetries caps consecutive failed attempts per transfer
	// before the failure is surfaced.
	FailoverMaxRetries int
	// AdaptSegments splits large rendezvous transfers into this many
	// sequentially planned segments, each planned against current link
	// state — a mid-transfer degradation is picked up at the next segment
	// boundary instead of after the whole message. 1 (default) plans the
	// whole message once, which is the paper's baseline behaviour.
	AdaptSegments int
	// AdaptMinBytes gates segmented planning: smaller transfers are
	// planned whole (segment overheads would dominate).
	AdaptMinBytes float64
	// GraphsEnable routes transfers through compiled transfer graphs: a
	// plan is lowered once into a cuda.Graph, cached by the plan's key,
	// and warm transfers replay it with a single O(1) launch instead of
	// re-enqueuing every chunk. Off by default — eager execution is the
	// paper-figure baseline.
	GraphsEnable bool
	// Recalibrate attaches an online recalibration observer to the
	// planner: achieved path times are compared against predictions and
	// the model's β parameters are corrected when drift exceeds
	// RecalOptions.DriftThreshold.
	Recalibrate bool
	// RecalOptions tune the observer; zero-valued fields take defaults.
	RecalOptions core.ObserverOptions
	// Trace attaches the sim-time observability layer: a span tracer over
	// the full transfer lifecycle (solve, cache outcome, graph
	// compile/patch/replay, per-path execution, failover, recalibration)
	// plus a metrics registry, exportable as a Perfetto trace and a JSON
	// snapshot. Off by default; disabled cost is one nil check per hook.
	Trace bool
}

// Protocol costs, in simulated seconds.
const (
	// rndvOverhead is the control-message (RTS/ATS) round-trip cost.
	rndvOverhead = 3.0e-6
	// eagerOverhead is the per-message cost of the eager protocol.
	eagerOverhead = 1.0e-6
	// ipcOpenCost is the one-time cudaIpcOpenMemHandle cost per GPU pair,
	// amortized by the translation cache.
	ipcOpenCost = 30.0e-6
)

// Planner produces a multi-path configuration for a transfer. core.Model
// is the dynamic implementation; tuner.StaticPlanner replays exhaustive
// search results.
type Planner interface {
	PlanTransfer(paths []hw.Path, n float64) (*core.Plan, error)
}

// DefaultConfig mirrors the runtime defaults of the integrated stack.
func DefaultConfig() Config {
	return Config{
		MultipathEnable:      true,
		PathSet:              "all",
		RndvThreshold:        64 * hw.KiB,
		ModelOptions:         core.DefaultOptions(),
		EngineConfig:         pipeline.DefaultConfig(),
		PatternAwareMinBytes: 24 * hw.MiB,
		FailoverEnable:       true,
		FailoverMaxRetries:   3,
		AdaptSegments:        1,
		AdaptMinBytes:        16 * hw.MiB,
	}
}

// ParseConfig overlays environment-style variables onto the defaults.
// Recognized keys (values as noted):
//
//	UCX_MP_ENABLE        y|n
//	UCX_MP_PATHS         direct|2gpus|3gpus|3gpus_host|all
//	UCX_RNDV_THRESH      bytes (integer)
//	UCX_MP_MAX_CHUNKS    integer ≥ 1
//	UCX_MP_PIPELINING    y|n
//	UCX_MP_BIDIR_AWARE   y|n
//	UCX_MP_ADAPTIVE_PHI  y|n
//	UCX_MP_LOAD_AWARE    y|n
//	UCX_MP_FAILOVER      y|n
//	UCX_MP_MAX_RETRIES   integer ≥ 0
//	UCX_MP_ADAPT_SEGMENTS integer ≥ 1
//	UCX_MP_ADAPT_MIN_BYTES bytes (integer)
//	UCX_MP_GRAPHS        y|n
//	UCX_MP_RECALIBRATE   y|n
//	UCX_MP_TRACE         y|n
//
// Byte thresholds are base-10 unsigned integers: no sign, fraction,
// exponent or hex form.
func ParseConfig(env map[string]string) (Config, error) {
	cfg := DefaultConfig()
	// Walk variables in sorted order so that with several invalid entries
	// the error names the same one every run (map order is randomized).
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := env[k]
		var err error
		switch k {
		case "UCX_MP_ENABLE":
			err = setBool(&cfg.MultipathEnable, v)
		case "UCX_MP_PATHS":
			if _, err := PathSetByName(v); err != nil {
				return cfg, err
			}
			cfg.PathSet = v
		case "UCX_RNDV_THRESH":
			err = setBytes(&cfg.RndvThreshold, v)
		case "UCX_MP_MAX_CHUNKS":
			err = setInt(&cfg.ModelOptions.MaxChunks, v, 1)
		case "UCX_MP_PIPELINING":
			err = setBool(&cfg.ModelOptions.Pipelined, v)
		case "UCX_MP_BIDIR_AWARE":
			err = setBool(&cfg.BidirAware, v)
		case "UCX_MP_ADAPTIVE_PHI":
			err = setBool(&cfg.ModelOptions.AdaptivePhi, v)
		case "UCX_MP_LOAD_AWARE":
			err = setBool(&cfg.LoadAware, v)
		case "UCX_MP_FAILOVER":
			err = setBool(&cfg.FailoverEnable, v)
		case "UCX_MP_MAX_RETRIES":
			err = setInt(&cfg.FailoverMaxRetries, v, 0)
		case "UCX_MP_ADAPT_SEGMENTS":
			err = setInt(&cfg.AdaptSegments, v, 1)
		case "UCX_MP_ADAPT_MIN_BYTES":
			err = setBytes(&cfg.AdaptMinBytes, v)
		case "UCX_MP_GRAPHS":
			err = setBool(&cfg.GraphsEnable, v)
		case "UCX_MP_RECALIBRATE":
			err = setBool(&cfg.Recalibrate, v)
		case "UCX_MP_TRACE":
			err = setBool(&cfg.Trace, v)
		default:
			return cfg, fmt.Errorf("ucx: unknown variable %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("ucx: %s: %w", k, err)
		}
	}
	return cfg, nil
}

// newPlannerModel builds a planner over the source, adjusted for the
// execution mode: compiled-graph execution pays no per-chunk ε and does
// not serialize path initiations, so with graphs enabled the planner
// models that cost structure (staged paths become viable at smaller sizes
// and chunk counts are no longer ε-limited). The one ε a replay does pay —
// once per launch — is charged by the pipeline engine from the topology.
func newPlannerModel(cfg Config, source core.ParamSource) *core.Model {
	mo := cfg.ModelOptions
	if cfg.GraphsEnable {
		source = core.GraphAwareSource{Inner: source}
		mo.AccumulateLaunch = false
	}
	return core.NewModel(source, mo)
}

// setBool, setInt and setBytes parse one variable's value into its
// Config field, leaving the field unchanged when the value is bad.
func setBool(dst *bool, v string) error {
	switch strings.ToLower(v) {
	case "y", "yes", "1", "true", "on":
		*dst = true
	case "n", "no", "0", "false", "off":
		*dst = false
	default:
		return fmt.Errorf("bad boolean %q", v)
	}
	return nil
}

// setInt accepts base-10 integers of at least lo.
func setInt(dst *int, v string, lo int) error {
	i, err := strconv.Atoi(v)
	if err != nil || i < lo {
		return fmt.Errorf("bad integer %q (want ≥ %d)", v, lo)
	}
	*dst = i
	return nil
}

// setBytes reads a byte threshold as a base-10 unsigned integer, so it is
// whole and finite (NaN, for one, would make every size comparison false,
// so that even a 1-byte Put would take rendezvous).
func setBytes(dst *float64, v string) error {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return fmt.Errorf("bad byte count %q", v)
	}
	*dst = float64(n)
	return nil
}

// PathSetByName maps configuration names to path selections.
func PathSetByName(name string) (hw.PathSet, error) {
	switch name {
	case "direct":
		return hw.DirectOnly, nil
	case "2gpus":
		return hw.TwoGPUs, nil
	case "3gpus":
		return hw.ThreeGPUs, nil
	case "3gpus_host":
		return hw.ThreeGPUsWithHost, nil
	case "all", "":
		return hw.AllPaths, nil
	}
	return hw.PathSet{}, fmt.Errorf("ucx: unknown path set %q", name)
}

// Context owns transport-global state: the planner, the pipeline engine,
// and the IPC translation cache shared by all endpoints.
//
// Planning state is safe for concurrent use: the shared core.Model is a
// concurrent sharded cache, the per-pair/per-pattern derived planners are
// built under modelMu with double-checked lookup (one concurrent model per
// pair, shared by every endpoint that plans against it), and the
// operation counters are atomic. Simulator execution (Put/Get) remains
// single-threaded, as the discrete-event core is; PlanFor is the
// goroutine-safe planning entry point.
type Context struct {
	cfg     Config
	rt      *cuda.Runtime
	engine  *pipeline.Engine
	model   *core.Model
	planner Planner
	sel     hw.PathSet

	// observer is the online recalibration loop (nil unless
	// Config.Recalibrate is set).
	observer *core.Observer

	// graphs is the compiled-graph cache (nil unless Config.GraphsEnable
	// is set), keyed like the plan cache; see graphs.go. The four counters
	// after it are the executor's, which GraphStats reports together with
	// the cache's own.
	graphs        *core.Cache[*pipeline.CompiledPlan]
	compiles      atomic.Int64
	replays       atomic.Int64
	patches       atomic.Int64
	invalidations atomic.Int64

	// tracer/metrics are the observability layer (nil unless Config.Trace
	// is set); met caches the registry's hot metric pointers. See obs.go.
	tracer  *obs.Tracer
	metrics *obs.Registry
	met     ctxMetrics

	ipcMu     sync.Mutex
	ipcOpened map[[2]int]bool
	ipcOpens  atomic.Int64
	puts      atomic.Int64
	// retries counts failed attempts that were re-planned and re-executed;
	// failovers counts paths excluded by those re-plans.
	retries   atomic.Int64
	failovers atomic.Int64

	// modelMu guards the derived-planner maps below.
	modelMu sync.Mutex
	// bidirModels caches per-pair contention-aware planners (BidirAware).
	bidirModels map[[2]int]*core.Model
	// patternModels caches planners per filtered communication-pattern
	// hint (see patternModel), at most maxPatternModels of them;
	// patternOrder holds their keys in insertion order and, once full, is
	// a ring whose slot patternNext is the next to evict.
	patternModels map[string]*core.Model
	patternOrder  []string
	patternNext   int

	// inflightMu guards inflight, which counts active rendezvous
	// transfers per (src, dst) pair, feeding LoadAware planning.
	inflightMu sync.Mutex
	inflight   map[[2]int]int

	// runsMu guards runs, the live multi-path transfers in launch order;
	// NotifyFault walks them to re-plan mid-flight.
	runsMu sync.Mutex
	runs   []*mpRun
}

// NewContext builds a context over a CUDA runtime.
func NewContext(rt *cuda.Runtime, cfg Config) (*Context, error) {
	sel, err := PathSetByName(cfg.PathSet)
	if err != nil {
		return nil, err
	}
	model := newPlannerModel(cfg, core.SpecSource{Node: rt.Node()})
	var observer *core.Observer
	if cfg.Recalibrate {
		observer = core.NewObserver(cfg.RecalOptions)
		model.AttachObserver(observer)
	}
	var planner Planner = model
	if cfg.Planner != nil {
		planner = cfg.Planner
	}
	var graphs *core.Cache[*pipeline.CompiledPlan]
	if cfg.GraphsEnable {
		graphs = core.NewCache(graphCacheCapacity, (*pipeline.CompiledPlan).Release)
	}
	c := &Context{
		cfg:           cfg,
		rt:            rt,
		engine:        pipeline.New(rt, cfg.EngineConfig),
		model:         model,
		planner:       planner,
		sel:           sel,
		observer:      observer,
		graphs:        graphs,
		ipcOpened:     make(map[[2]int]bool),
		bidirModels:   make(map[[2]int]*core.Model),
		patternModels: make(map[string]*core.Model),
		inflight:      make(map[[2]int]int),
	}
	if cfg.Trace {
		c.initObs()
	}
	return c, nil
}

// Model exposes the planner (experiments query predictions through it).
func (c *Context) Model() *core.Model { return c.model }

// Runtime returns the CUDA runtime.
func (c *Context) Runtime() *cuda.Runtime { return c.rt }

// Config returns the active configuration.
func (c *Context) Config() Config { return c.cfg }

// Observer returns the online recalibration observer, or nil when
// Config.Recalibrate is off.
func (c *Context) Observer() *core.Observer { return c.observer }

// trackRun registers a launched multi-path transfer for fault notification.
func (c *Context) trackRun(r *mpRun) {
	c.runsMu.Lock()
	c.runs = append(c.runs, r)
	c.runsMu.Unlock()
}

// untrackRun drops a settled transfer from the notification set.
func (c *Context) untrackRun(r *mpRun) {
	c.runsMu.Lock()
	for i, x := range c.runs {
		if x == r {
			c.runs = append(c.runs[:i], c.runs[i+1:]...)
			break
		}
	}
	c.runsMu.Unlock()
}

// NotifyFault tells the context link state changed underneath it — the
// health notification a real runtime gets from NVML or a UCX error
// callback. Cached plans are dropped, and every live chunk-pool transfer is
// re-planned against the current capacities so its byte split shifts off
// degraded links immediately instead of at the next transfer. Silent faults
// (no notification) are still caught, later, by recalibration and failover.
func (c *Context) NotifyFault() {
	c.met.faults.Inc()
	c.tracer.Instant("faults", "fault", "notify")
	c.model.InvalidateCache()
	if c.graphs != nil {
		// Every compiled graph baked its byte split against the old link
		// state; drop them all so warm transfers recompile against the new.
		c.dropGraphs(func(*pipeline.CompiledPlan) bool { return true })
	}
	c.runsMu.Lock()
	runs := append([]*mpRun(nil), c.runs...)
	c.runsMu.Unlock()
	for _, r := range runs {
		r.replanLive()
	}
}

// Worker is the per-process progress context (one per MPI rank).
type Worker struct {
	ctx *Context
	dev int
}

// NewWorker creates a worker bound to a GPU.
func (c *Context) NewWorker(dev int) *Worker {
	return &Worker{ctx: c, dev: dev}
}

// Device returns the worker's GPU index.
func (w *Worker) Device() int { return w.dev }

// Endpoint connects a worker to a peer GPU.
type Endpoint struct {
	ctx *Context
	src int
	dst int
}

// Connect creates an endpoint from this worker's GPU to the peer's.
func (w *Worker) Connect(peerDev int) (*Endpoint, error) {
	if peerDev == w.dev {
		return nil, fmt.Errorf("ucx: cannot connect endpoint to self (GPU %d)", w.dev)
	}
	if peerDev < 0 || peerDev >= w.ctx.rt.DeviceCount() {
		return nil, fmt.Errorf("ucx: peer GPU %d out of range", peerDev)
	}
	return &Endpoint{ctx: w.ctx, src: w.dev, dst: peerDev}, nil
}

// Request is an in-flight one-sided operation.
type Request struct {
	// Done points at the request's own embedded completion signal.
	Done  *sim.Signal
	done  sim.Signal
	Bytes float64
	start sim.Time
	// Multipath reports whether the transfer used the multi-path engine.
	Multipath bool
	// Plan is the configuration used (nil for eager/single-path; the most
	// recent attempt's plan when failover re-planned).
	Plan *core.Plan
	// Retries counts failed attempts of this transfer that were re-planned
	// and re-executed; Failovers counts paths those re-plans excluded.
	Retries   int
	Failovers int
	// span is the transfer's root trace span (NoSpan when tracing is off).
	span obs.SpanID
}

// newRequest starts a request for bytes at the current instant.
func newRequest(s *sim.Simulator, bytes float64) *Request {
	req := &Request{Bytes: bytes, start: s.Now()}
	req.done.Init(s)
	req.Done = &req.done
	return req
}

// Elapsed returns the operation duration once Done has fired.
func (r *Request) Elapsed() float64 {
	if !r.Done.Fired() {
		return 0
	}
	return r.Done.FiredAt() - r.start
}

// Put issues a one-sided GPU-to-GPU write of the given size. Small
// messages use the eager protocol on the direct link; large messages go
// through rendezvous and, when enabled, the model-driven multi-path
// engine.
func (ep *Endpoint) Put(bytes float64) (*Request, error) {
	return ep.put(bytes, nil)
}

// PutHinted is Put with a communication-pattern hint: the (src, dst)
// pairs of transfers known to run concurrently (e.g. the other exchanges
// of a collective round). The planner derates links those transfers
// occupy, implementing the §3 suggestion that known patterns let unused
// paths be exploited more effectively.
func (ep *Endpoint) PutHinted(bytes float64, concurrent [][2]int) (*Request, error) {
	return ep.put(bytes, concurrent)
}

func (ep *Endpoint) put(bytes float64, concurrent [][2]int) (*Request, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("ucx: Put of %v bytes", bytes)
	}
	c := ep.ctx
	c.puts.Add(1)
	s := c.rt.Sim()
	req := newRequest(s, bytes)
	c.beginTransferSpan(req, ep.src, ep.dst, "put")

	// cuda_ipc handle translation: first transfer to a peer opens the
	// remote memory handle; later transfers hit the cache.
	setup := 0.0
	key := [2]int{ep.src, ep.dst}
	c.ipcMu.Lock()
	opened := c.ipcOpened[key]
	if !opened {
		c.ipcOpened[key] = true
	}
	c.ipcMu.Unlock()
	if !opened {
		c.ipcOpens.Add(1)
		setup += ipcOpenCost
	}

	if bytes < c.cfg.RndvThreshold || !c.cfg.MultipathEnable {
		return ep.singlePath(req, bytes, setup)
	}
	return ep.multiPath(req, setup, concurrent)
}

// singlePath issues the transfer on the direct link only (the default
// cuda_ipc behaviour).
func (ep *Endpoint) singlePath(req *Request, bytes, setup float64) (*Request, error) {
	c := ep.ctx
	s := c.rt.Sim()
	overhead := setup
	if bytes < c.cfg.RndvThreshold {
		overhead += eagerOverhead
	} else {
		overhead += rndvOverhead
	}
	s.Schedule(overhead, func() {
		st := c.rt.Device(ep.src).NewStream("put")
		sig := st.MemcpyPeerAsync(c.rt.Device(ep.dst), bytes)
		sig.OnFire(func() {
			if sig.Err() != nil {
				req.Done.Fail(sig.Err())
				return
			}
			req.Done.Fire()
		})
	})
	return req, nil
}

// PlanFor computes the multi-path configuration the context would use for
// a (src, dst, bytes) transfer with the given concurrency hints — the
// planning half of a rendezvous Put, with no simulator interaction. It is
// safe to call from many goroutines at once (a planning service hot path):
// the shared model's cache is concurrent and derived planners are built
// once per pair/pattern.
func (c *Context) PlanFor(src, dst int, bytes float64, concurrent [][2]int) (*core.Plan, error) {
	return c.planWith(src, dst, bytes, c.sel, concurrent, nil, obs.NoSpan)
}

// PlanForSet is PlanFor with an explicit path-set selection overriding the
// context's configured one — the entry point of a plan-serving daemon,
// where every request names its own candidate set. Like PlanFor it is safe
// to call from many goroutines at once and touches no simulator state.
func (c *Context) PlanForSet(src, dst int, bytes float64, sel hw.PathSet, concurrent [][2]int) (*core.Plan, error) {
	return c.planWith(src, dst, bytes, sel, concurrent, nil, obs.NoSpan)
}

// planWith is PlanFor with an explicit path-set selection, an exclusion
// set (paths ruled out by failover), and a parent trace span for the solve
// span (NoSpan outside a traced transfer). Excluded paths are filtered
// after enumeration, so the plan cache keys the filtered list and
// healthy-state plans are never clobbered by degraded-state ones.
func (c *Context) planWith(src, dst int, bytes float64, sel hw.PathSet, concurrent [][2]int, excluded map[hw.Path]bool, parent obs.SpanID) (*core.Plan, error) {
	paths, err := c.rt.Node().Paths(src, dst, sel)
	if err != nil {
		return nil, err
	}
	if len(excluded) > 0 {
		kept := make([]hw.Path, 0, len(paths))
		for _, p := range paths {
			if !excluded[p] {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("ucx: no usable paths %d->%d after excluding %d failed", src, dst, len(excluded))
		}
		paths = kept
	}
	if c.cfg.LoadAware && len(concurrent) == 0 {
		concurrent = c.inflightPairs(src, dst)
	}
	planner := c.planner
	if c.cfg.Planner == nil {
		switch {
		case len(concurrent) > 0 && bytes >= c.cfg.PatternAwareMinBytes:
			planner, err = c.patternModel(src, dst, concurrent)
		case c.cfg.BidirAware:
			planner, err = c.bidirModel(src, dst, paths)
		}
		if err != nil {
			return nil, err
		}
	}
	var pl *core.Plan
	if m, ok := planner.(*core.Model); ok {
		pl, err = m.PlanTransferSpan(paths, bytes, parent)
	} else {
		pl, err = planner.PlanTransfer(paths, bytes)
	}
	if err != nil {
		return nil, err
	}
	c.met.predicted.Observe(pl.PredictedTime)
	return pl, nil
}

// multiPath plans the transfer across the configured paths and launches
// its run once the IPC setup and rendezvous handshake have elapsed,
// counting it among the pair's in-flight transfers until it settles.
func (ep *Endpoint) multiPath(req *Request, setup float64, concurrent [][2]int) (*Request, error) {
	c := ep.ctx
	r, err := c.newRun(req, ep.src, ep.dst, c.sel, concurrent)
	if err != nil {
		return nil, err
	}
	c.inflightMu.Lock()
	c.inflight[[2]int{ep.src, ep.dst}]++
	c.inflightMu.Unlock()
	r.inflight = true
	c.rt.Sim().ScheduleHandler(setup+rndvOverhead, r, mpBegin)
	return req, nil
}

// releaseInflight drops one in-flight transfer of the pair from the
// load-aware planner's view.
func (c *Context) releaseInflight(src, dst int) {
	pair := [2]int{src, dst}
	c.inflightMu.Lock()
	if c.inflight[pair] > 0 {
		c.inflight[pair]--
	}
	if c.inflight[pair] == 0 {
		delete(c.inflight, pair)
	}
	c.inflightMu.Unlock()
}

// inflightPairs snapshots the currently active transfer pairs other than
// the one being planned, in deterministic order.
func (c *Context) inflightPairs(src, dst int) [][2]int {
	c.inflightMu.Lock()
	defer c.inflightMu.Unlock()
	if len(c.inflight) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(c.inflight))
	gpus := c.rt.DeviceCount()
	for a := 0; a < gpus; a++ {
		for b := 0; b < gpus; b++ {
			pair := [2]int{a, b}
			if pair == ([2]int{src, dst}) {
				continue
			}
			if c.inflight[pair] > 0 {
				out = append(out, pair)
			}
		}
	}
	return out
}

// maxPatternModels bounds the pattern planners a context keeps. Each holds
// its own plan cache, and hints arrive from the network (serve/v1
// PlanRequest.Concurrent) as well as from LoadAware bookkeeping, so an
// unbounded map grows with every distinct hint. Past the bound the oldest
// planner is evicted; a rebuilt one plans exactly like the original did,
// unless the shared model it derives its loads from was refit meanwhile.
const maxPatternModels = 256

// patternKey appends the cache key of a pattern hint to buf: the hint's
// pairs other than the planned (src, dst) one — the only pairs the planner
// reads — in hint order, each index varint-encoded so the concatenation is
// unambiguous.
func patternKey(buf []byte, src, dst int, concurrent [][2]int) []byte {
	for _, pair := range concurrent {
		if pair[0] == src && pair[1] == dst {
			continue
		}
		buf = binary.AppendVarint(buf, int64(pair[0]))
		buf = binary.AppendVarint(buf, int64(pair[1]))
	}
	return buf
}

// patternModel returns (building and caching on demand) a planner that
// derates links used by a known set of concurrent transfers. Each
// concurrent pair contributes the legs of its own candidate path set —
// multi-path peers spread over staged paths too, so their staged legs are
// part of the load. Pairs whose filtered hints agree share one planner.
func (c *Context) patternModel(src, dst int, concurrent [][2]int) (*core.Model, error) {
	var keyBuf [32]byte
	key := patternKey(keyBuf[:0], src, dst, concurrent)
	// Holding modelMu across the build serializes concurrent misses for
	// the same pattern: one goroutine builds, the rest find the cached
	// planner. Builds are rare (one per distinct pattern) and cheap next
	// to the searches they replace, so a single lock is enough.
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if m, ok := c.patternModels[string(key)]; ok {
		return m, nil
	}
	spec := c.rt.Node().Spec
	// Estimate each concurrent transfer's commitment from its own naive
	// plan at a reference size: the links it uses, weighted by its θ
	// shares at its predicted rate.
	const refN = 64 * hw.MiB
	var loads []core.LoadedPath
	for _, pair := range concurrent {
		if pair[0] == src && pair[1] == dst {
			continue // never count the transfer being planned
		}
		paths, err := spec.EnumeratePaths(pair[0], pair[1], c.sel)
		if err != nil {
			return nil, fmt.Errorf("ucx: pattern hint pair %v: %w", pair, err)
		}
		pl, err := c.model.PlanTransfer(paths, refN)
		if err != nil {
			return nil, err
		}
		for _, pp := range pl.ActivePaths() {
			loads = append(loads, core.LoadedPath{
				Path:   pp.Path,
				Weight: pp.Theta,
				Rate:   pl.PredictedBandwidth,
			})
		}
	}
	source, err := core.NewWeightedContendedSource(c.rt.Node(), loads)
	if err != nil {
		return nil, err
	}
	m := newPlannerModel(c.cfg, source)
	if c.tracer != nil {
		m.AttachTracer(c.tracer)
	}
	k := string(key)
	if len(c.patternOrder) < maxPatternModels {
		c.patternOrder = append(c.patternOrder, k)
	} else {
		delete(c.patternModels, c.patternOrder[c.patternNext])
		c.patternOrder[c.patternNext] = k
		c.patternNext = (c.patternNext + 1) % maxPatternModels
	}
	c.patternModels[k] = m
	return m, nil
}

// bidirModel returns (building on demand) the contention-aware planner
// for a GPU pair: it assumes the mirror transfer is concurrently active.
func (c *Context) bidirModel(src, dst int, paths []hw.Path) (*core.Model, error) {
	key := [2]int{src, dst}
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if m, ok := c.bidirModels[key]; ok {
		return m, nil
	}
	source, err := core.BidirectionalSource(c.rt.Node(), paths)
	if err != nil {
		return nil, err
	}
	m := newPlannerModel(c.cfg, source)
	if c.tracer != nil {
		m.AttachTracer(c.tracer)
	}
	c.bidirModels[key] = m
	return m, nil
}

// Get issues a one-sided read: data moves dst→src. It is implemented as a
// Put from the remote side, as UCX's cuda_ipc does.
func (ep *Endpoint) Get(bytes float64) (*Request, error) {
	rev := &Endpoint{ctx: ep.ctx, src: ep.dst, dst: ep.src}
	return rev.Put(bytes)
}
