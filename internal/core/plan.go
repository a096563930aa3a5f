package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/obs"
)

// ChunkRule selects how per-path chunk counts are computed.
type ChunkRule int

const (
	// ChunksLinearized uses Eq. (19) with the topology constant φ
	// (the paper's runtime choice).
	ChunksLinearized ChunkRule = iota
	// ChunksExact uses the square-root optima of Eqs. (14)/(15)
	// (requires per-size evaluation; used offline and for ablation).
	ChunksExact
	// ChunksFixed uses Options.FixedChunks for every staged path.
	ChunksFixed
)

// Options configure the planner.
type Options struct {
	// Pipelined enables chunked, pipelined staged transfers (§3.4).
	// When false, staged paths transfer their whole share in one chunk
	// (§3.3).
	Pipelined bool
	// ChunkRule picks the chunk-count law; FixedChunks is used when the
	// rule is ChunksFixed.
	ChunkRule   ChunkRule
	FixedChunks int
	// MaxChunks caps k_i (runtime queues are finite).
	MaxChunks int
	// MinChunkBytes prevents chunks too small to amortize launch cost.
	MinChunkBytes float64
	// PhiRefShare is the reference share size at which φ matches the
	// exact chunk law (used when a PathParam has no fitted φ).
	PhiRefShare float64
	// AccumulateLaunch applies Algorithm 1 line 18: each later path's Δ
	// absorbs the initiation latency of the paths launched before it.
	AccumulateLaunch bool
	// AdaptivePhi recomputes each path's φ at its *actual* share instead
	// of a fixed reference size, iterating share → φ → share to a fixed
	// point. This keeps the runtime closed-form (a few O(p) passes) while
	// removing the linearization error that makes the fixed-φ model
	// mis-plan small messages (the paper's Observation 4).
	AdaptivePhi bool
	// Granularity aligns per-path byte shares (register/packet alignment).
	Granularity float64
	// CacheCapacity bounds the number of retained plans (CLOCK eviction);
	// 0 means DefaultCacheCapacity. The effective floor is one entry per
	// cache shard.
	CacheCapacity int
	// QuantizeSizes shares plans across nearby message sizes
	// (UCX-rendezvous-style size classes, 32 per power of two): the share
	// split is solved once per (path set, size class) and rescaled to the
	// exact byte count per transfer. Off by default — exact per-size
	// planning is what the paper's claims tests pin down.
	QuantizeSizes bool
}

// DefaultOptions returns the configuration used by the runtime integration.
func DefaultOptions() Options {
	return Options{
		Pipelined:        true,
		ChunkRule:        ChunksLinearized,
		MaxChunks:        64,
		MinChunkBytes:    256 * hw.KiB,
		PhiRefShare:      32 * hw.MiB,
		AccumulateLaunch: true,
		Granularity:      256,
	}
}

// ParamSource supplies model parameters for candidate paths. The spec
// oracle (SpecSource) reads them from the topology; the calib package
// provides a measured implementation.
type ParamSource interface {
	PathParams(p hw.Path) (PathParam, error)
}

// SpecSource reads ground-truth parameters from a realized topology.
type SpecSource struct{ Node *hw.Node }

// PathParams implements ParamSource.
func (s SpecSource) PathParams(p hw.Path) (PathParam, error) {
	return ParamsFromSpec(s.Node, p)
}

// PathPlan is the planned assignment for one path.
type PathPlan struct {
	Path   hw.Path
	Param  PathParam
	Theta  float64 // fraction of the message
	Bytes  float64 // actual bytes after alignment and leftover handling
	Chunks int     // pipeline chunk count k_i
	Omega  float64
	Delta  float64
	// Predicted is the model's time for this path at its actual share.
	Predicted float64
}

// Plan is the output of Algorithm 1 for one transfer: per-path shares and
// chunk counts plus the model's end-to-end prediction. Cached plans are
// shared across goroutines and must be treated as immutable.
type Plan struct {
	Src, Dst int
	Bytes    float64
	Paths    []PathPlan
	// PredictedTime is max_i T_i (Eq. 4) under the affine law.
	PredictedTime float64
	// PredictedBandwidth is Bytes / PredictedTime.
	PredictedBandwidth float64
}

// Key returns the plan's cache key: the same uint64 hash the
// configuration cache computes from the candidate path list (in order)
// and the message size. Layers that cache artifacts derived from plans —
// the ucx compiled-graph cache — key them identically, so a plan-cache
// hit and its graph-cache hit always agree.
func (p *Plan) Key() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	h = (h ^ uint64(len(p.Paths))) * fnvPrime
	for i := range p.Paths {
		h = (h ^ packPath(p.Paths[i].Path)) * fnvPrime
	}
	h = (h ^ math.Float64bits(p.Bytes)) * fnvPrime
	return mix64(h)
}

// ActivePaths returns the paths that received a non-zero share.
func (pl *Plan) ActivePaths() []PathPlan {
	out := make([]PathPlan, 0, len(pl.Paths))
	for _, pp := range pl.Paths {
		if pp.Bytes > 0 {
			out = append(out, pp)
		}
	}
	return out
}

// Model is the runtime planner: it owns options, a parameter source, and
// the configuration cache. It is safe for concurrent use: lookups are
// lock-striped and allocation-free on the hit path, and concurrent misses
// for the same key compute the plan once.
type Model struct {
	src     ParamSource
	opts    Options
	cache   *Cache[*Plan]
	scratch sync.Pool
	// obs, when set, applies online β corrections to path parameters at
	// planning time (see Observer).
	obs atomic.Pointer[Observer]
	// tr, when set, records a span per plan lookup with the cache outcome
	// (hit / miss / merge). Loaded once per lookup; nil costs one pointer
	// check on the hot path.
	tr atomic.Pointer[obs.Tracer]
}

// NewModel creates a planner.
func NewModel(src ParamSource, opts Options) *Model {
	if opts.MaxChunks <= 0 {
		opts.MaxChunks = 64
	}
	if opts.Granularity <= 0 {
		opts.Granularity = 1
	}
	m := &Model{src: src, opts: opts, cache: NewCache[*Plan](opts.CacheCapacity, nil)}
	m.scratch.New = func() any { return new(planScratch) }
	return m
}

// Options returns the planner's configuration.
func (m *Model) Options() Options { return m.opts }

// Stats returns a snapshot of the cumulative cache statistics.
func (m *Model) Stats() CacheStats { return m.cache.Stats() }

// CachedPlans reports how many plans the cache currently retains.
func (m *Model) CachedPlans() int { return m.cache.Len() }

// InvalidateCache clears cached configurations (topology change). Safe
// against concurrent lookups: in-flight computations finish and deliver
// their result to waiters but are not re-cached. Statistics are cumulative
// across invalidations.
func (m *Model) InvalidateCache() { m.cache.DropIf(func(*Plan) bool { return true }) }

// AttachObserver wires an online recalibration observer into the planner:
// path parameters are passed through the observer's β correction at plan
// time, and the observer invalidates this model's cache whenever it re-fits
// a correction. Attach at most one observer per model; attaching nil
// detaches.
func (m *Model) AttachObserver(o *Observer) {
	m.obs.Store(o)
	if o != nil {
		o.register(m)
		m.InvalidateCache()
	}
}

// Observer returns the attached recalibration observer, or nil.
func (m *Model) Observer() *Observer { return m.obs.Load() }

// AttachTracer wires span tracing into the planner: every PlanTransfer
// records a "solve" span on the planner track annotated with the cache
// outcome. Attaching nil detaches; with no tracer attached the lookup path
// pays a single atomic pointer load.
func (m *Model) AttachTracer(tr *obs.Tracer) { m.tr.Store(tr) }

// Tracer returns the attached tracer, or nil.
func (m *Model) Tracer() *obs.Tracer { return m.tr.Load() }

// planScratch holds the per-computation working set of Model.plan so a
// cache miss performs no allocations beyond the returned Plan itself.
type planScratch struct {
	params []PathParam
	thetas []float64
	next   []float64
	affine []AffinePath
	order  []int
}

func (sc *planScratch) resize(p int) {
	if cap(sc.params) < p {
		sc.params = make([]PathParam, p)
		sc.thetas = make([]float64, p)
		sc.next = make([]float64, p)
		sc.affine = make([]AffinePath, p)
		sc.order = make([]int, p)
	}
	sc.params = sc.params[:p]
	sc.thetas = sc.thetas[:p]
	sc.next = sc.next[:p]
	sc.affine = sc.affine[:p]
	sc.order = sc.order[:p]
}

// PlanTransfer runs Algorithm 1: given the candidate paths (direct first,
// in initiation order) and the message size in bytes, it computes the
// optimal share and chunk count per path. Results are cached per
// (path set, size) — or per (path set, size class) with QuantizeSizes on —
// and the cached fast path is allocation-free.
func (m *Model) PlanTransfer(paths []hw.Path, n float64) (*Plan, error) {
	return m.PlanTransferSpan(paths, n, obs.NoSpan)
}

// PlanTransferSpan is PlanTransfer with an explicit trace parent: when a
// tracer is attached, the lookup records a "solve" span on the planner
// track parented under the caller's span (typically a transfer), annotated
// with the cache outcome. With no tracer attached the extra cost is one
// atomic pointer load.
func (m *Model) PlanTransferSpan(paths []hw.Path, n float64, parent obs.SpanID) (*Plan, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no candidate paths")
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, fmt.Errorf("core: invalid message size %v", n)
	}
	tr := m.tr.Load()
	if tr == nil {
		return m.lookup(paths, n, nil)
	}
	sp := tr.Begin("planner", "plan", "solve", parent,
		obs.KVi("paths", int64(len(paths))), obs.KVf("bytes", n))
	var computed bool
	pl, err := m.lookup(paths, n, &computed)
	outcome := "hit"
	if computed {
		outcome = "miss"
	}
	if err != nil {
		tr.EndWith(sp, obs.KV("cache", outcome), obs.KV("error", err.Error()))
		return nil, err
	}
	tr.EndWith(sp, obs.KV("cache", outcome), obs.KVf("predicted_s", pl.PredictedTime))
	return pl, nil
}

// lookup serves a validated plan request from the configuration cache.
// When computed is non-nil it is set to true iff this call ran the solver
// (a cache miss; hits and in-flight merges leave it false).
func (m *Model) lookup(paths []hw.Path, n float64, computed *bool) (*Plan, error) {
	if m.opts.QuantizeSizes {
		if nq := quantizeSize(n); nq != n {
			base, err := m.cache.Get(planKey(paths, nq), func() (*Plan, error) {
				if computed != nil {
					*computed = true
				}
				return m.plan(paths, nq)
			})
			if err != nil {
				return nil, err
			}
			return m.rescale(base, n), nil
		}
	}
	return m.cache.Get(planKey(paths, n), func() (*Plan, error) {
		if computed != nil {
			*computed = true
		}
		return m.plan(paths, n)
	})
}

func (m *Model) plan(paths []hw.Path, n float64) (*Plan, error) {
	p := len(paths)
	plans := make([]PathPlan, p)
	sc := m.scratch.Get().(*planScratch)
	defer m.scratch.Put(sc)
	sc.resize(p)
	params := sc.params
	for i, path := range paths {
		param, err := m.src.PathParams(path)
		if err != nil {
			return nil, fmt.Errorf("core: params for path %v: %w", path, err)
		}
		if err := param.Validate(); err != nil {
			return nil, err
		}
		if obs := m.obs.Load(); obs != nil {
			param = obs.adjust(param)
		}
		params[i] = param
	}

	// Share → φ → share fixed point. With AdaptivePhi off this runs a
	// single pass using the reference-size φ.
	thetas, next := sc.thetas, sc.next
	for i := range thetas {
		thetas[i] = 1 / float64(p)
	}
	affine := sc.affine
	iterations := 1
	if m.opts.AdaptivePhi {
		iterations = 4
	}
	for iter := 0; iter < iterations; iter++ {
		launchAccum := 0.0
		for i := range paths {
			param := params[i]
			phi := param.Phi
			if phi <= 0 || m.opts.AdaptivePhi {
				ref := m.opts.PhiRefShare
				if m.opts.AdaptivePhi {
					ref = thetas[i] * n
					if ref <= 0 {
						// Excluded last round: evaluate φ at the share it
						// would need to re-enter (an equal split).
						ref = n / float64(p)
					}
				}
				phi = param.DefaultPhi(ref)
			}
			omega, delta := param.OmegaDelta(m.opts.Pipelined, phi)
			if m.opts.AccumulateLaunch {
				// Algorithm 1 line 18: paths are initiated sequentially;
				// a later path waits for the launch latency of earlier
				// ones.
				delta += launchAccum
				launchAccum += param.Legs[0].Alpha
			}
			plans[i] = PathPlan{Path: paths[i], Param: param, Omega: omega, Delta: delta}
			plans[i].Param.Phi = phi
			affine[i] = AffinePath{Omega: omega, Delta: delta}
		}
		solveWaterFillInto(affine, n, next, sc.order)
		converged := true
		for i := range next {
			if diff := next[i] - thetas[i]; diff > 0.01 || diff < -0.01 {
				converged = false
			}
		}
		thetas, next = next, thetas
		if converged {
			break
		}
	}

	// Quantize shares (Algorithm 1 lines 23-29): align down, give the
	// leftover to the direct path (index 0 by construction).
	gran := m.opts.Granularity
	var assigned float64
	for i := range plans {
		share := thetas[i] * n
		share = math.Floor(share/gran) * gran
		if share < 0 {
			share = 0
		}
		plans[i].Theta = thetas[i]
		plans[i].Bytes = share
		assigned += share
	}
	if leftover := n - assigned; leftover > 0 {
		plans[0].Bytes += leftover
		plans[0].Theta = plans[0].Bytes / n
	}

	// Chunk counts and per-path predictions at the actual byte shares.
	worst := 0.0
	for i := range plans {
		if !finite(plans[i].Theta) || !finite(plans[i].Bytes) {
			return nil, errNoFinitePlan(n)
		}
		plans[i].Chunks = m.chunksFor(&plans[i])
		if plans[i].Bytes > 0 {
			plans[i].Predicted = AffinePath{Omega: plans[i].Omega, Delta: plans[i].Delta}.Time(plans[i].Bytes)
			if plans[i].Predicted > worst {
				worst = plans[i].Predicted
			}
		}
	}
	if !(worst > 0) || !finite(worst) {
		return nil, errNoFinitePlan(n)
	}

	pl := &Plan{
		Src:           paths[0].Src,
		Dst:           paths[0].Dst,
		Bytes:         n,
		Paths:         plans,
		PredictedTime: worst,
	}
	if worst > 0 {
		pl.PredictedBandwidth = n / worst
	}
	return pl, nil
}

// errNoFinitePlan refuses a size the solver cannot split: one so small
// that n·Ω underflows leaves the water-fill with 0/0 shares and no path
// with bytes, which would otherwise reach callers as a NaN split with a
// zero predicted time.
func errNoFinitePlan(n float64) error {
	return fmt.Errorf("core: no finite plan for %v bytes", n)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// rescale projects a plan solved at a size-class representative onto the
// exact transfer size: the cached share fractions are kept, byte shares
// are re-aligned at n, and chunk counts and predictions are recomputed at
// the actual bytes. This is the QuantizeSizes fast path — O(p), no solver.
func (m *Model) rescale(base *Plan, n float64) *Plan {
	plans := make([]PathPlan, len(base.Paths))
	copy(plans, base.Paths)
	gran := m.opts.Granularity
	var assigned float64
	for i := range plans {
		share := plans[i].Theta * n
		share = math.Floor(share/gran) * gran
		if share < 0 {
			share = 0
		}
		plans[i].Bytes = share
		assigned += share
	}
	// The cached thetas can sum to slightly more than 1 (the base plan's
	// direct theta absorbed its own alignment leftover), so the leftover
	// here can be negative; the direct path absorbs it in either
	// direction, falling back to the largest staged share if it would go
	// negative.
	if leftover := n - assigned; leftover != 0 {
		plans[0].Bytes += leftover
		if plans[0].Bytes < 0 {
			deficit := -plans[0].Bytes
			plans[0].Bytes = 0
			maxI := 0
			for i := 1; i < len(plans); i++ {
				if plans[i].Bytes > plans[maxI].Bytes {
					maxI = i
				}
			}
			plans[maxI].Bytes -= deficit
		}
		plans[0].Theta = plans[0].Bytes / n
	}
	worst := 0.0
	for i := range plans {
		plans[i].Chunks = m.chunksFor(&plans[i])
		if plans[i].Bytes > 0 {
			plans[i].Predicted = AffinePath{Omega: plans[i].Omega, Delta: plans[i].Delta}.Time(plans[i].Bytes)
			if plans[i].Predicted > worst {
				worst = plans[i].Predicted
			}
		} else {
			plans[i].Predicted = 0
		}
	}
	pl := &Plan{
		Src:           base.Src,
		Dst:           base.Dst,
		Bytes:         n,
		Paths:         plans,
		PredictedTime: worst,
	}
	if worst > 0 {
		pl.PredictedBandwidth = n / worst
	}
	return pl
}

// chunksFor applies the configured chunk rule with the runtime clamps.
func (m *Model) chunksFor(pp *PathPlan) int {
	if pp.Bytes <= 0 {
		return 0
	}
	if !pp.Param.Staged() || !m.opts.Pipelined {
		return 1
	}
	var k float64
	switch m.opts.ChunkRule {
	case ChunksExact:
		k = pp.Param.ExactChunks(pp.Bytes)
	case ChunksFixed:
		k = float64(m.opts.FixedChunks)
	default:
		k = pp.Param.LinearChunks(pp.Bytes, pp.Param.Phi)
	}
	if m.opts.MinChunkBytes > 0 {
		if maxK := pp.Bytes / m.opts.MinChunkBytes; k > maxK {
			k = maxK
		}
	}
	if k > float64(m.opts.MaxChunks) {
		k = float64(m.opts.MaxChunks)
	}
	ki := int(math.Round(k))
	if ki < 1 {
		ki = 1
	}
	return ki
}

// PredictBandwidth is a convenience wrapper returning the model's
// predicted aggregate bandwidth for a transfer.
func (m *Model) PredictBandwidth(paths []hw.Path, n float64) (float64, error) {
	pl, err := m.PlanTransfer(paths, n)
	if err != nil {
		return 0, err
	}
	return pl.PredictedBandwidth, nil
}
