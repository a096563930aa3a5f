package ucx

// Compiled-graph execution: when Config.GraphsEnable is set, whole-plan
// transfers run through the graph cache (hash → replay on the warm path)
// and adaptive chunk-pool feeders keep a private compiled graph that is
// patched in place when only byte counts changed. With graphs disabled
// every transfer takes the eager engine path, byte-identical to the
// paper-figure behaviour.
//
// The graph cache is a core.Cache, the cache the planner keeps its plans
// in, one level down and keyed identically (core.Plan.Key). At steady
// state a warm Put is: plan-cache hit → graph-cache hit → one O(1) graph
// replay. Graphs that leave it — evicted, recompiled or invalidated —
// release their staging memory.

import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// graphCacheCapacity bounds retained compiled graphs. Graphs are heavier
// than plans (each staged path holds a staging ring), so the bound is much
// tighter than the plan cache's.
const graphCacheCapacity = 256

// GraphStats counts compiled-graph cache and executor behaviour. The JSON
// tags are part of the serving wire contract (StatsSnapshot embeds this
// struct and /v1/stats serves it).
type GraphStats struct {
	// Hits are lookups served an already-instantiated graph.
	Hits int64 `json:"hits"`
	// Misses are lookups that had to compile.
	Misses int64 `json:"misses"`
	// Compiles counts graph compilations (cache misses plus structural
	// recompiles and feeder-private compiles).
	Compiles int64 `json:"compiles"`
	// Replays counts graph launches (warm transfers executed by replay).
	Replays int64 `json:"replays"`
	// Patches counts in-place parameter updates (GraphExecUpdate-style)
	// applied instead of recompiling.
	Patches int64 `json:"patches"`
	// Invalidations counts graphs dropped by fault notifications and
	// failover exclusions.
	Invalidations int64 `json:"invalidations"`
	// Evictions counts graphs dropped by the CLOCK capacity bound.
	Evictions int64 `json:"evictions"`
	// InflightMerges counts lookups that joined an in-flight compilation
	// of the same key (singleflight).
	InflightMerges int64 `json:"inflight_merges"`
}

// GraphStats snapshots the compiled-graph cache counters (zero value when
// graphs are disabled).
func (c *Context) GraphStats() GraphStats {
	if c.graphs == nil {
		return GraphStats{}
	}
	cs := c.graphs.Stats()
	return GraphStats{
		Hits:           cs.Hits,
		Misses:         cs.Misses,
		Compiles:       c.compiles.Load(),
		Replays:        c.replays.Load(),
		Patches:        c.patches.Load(),
		Invalidations:  c.invalidations.Load(),
		Evictions:      cs.Evictions,
		InflightMerges: cs.InflightMerges,
	}
}

// GraphCount reports how many compiled graphs the cache retains.
func (c *Context) GraphCount() int {
	if c.graphs == nil {
		return 0
	}
	return c.graphs.Len()
}

// execPlan executes one whole-plan attempt, through the compiled-graph
// cache when enabled. Graph failures fall back to eager execution — the
// graph path is an optimization, never a correctness dependency. The
// parent span (NoSpan when tracing is off) becomes the parent of the
// per-path and replay spans the engine emits.
func (c *Context) execPlan(pl *core.Plan, parent obs.SpanID) (*pipeline.Result, error) {
	if c.graphs == nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	cp, err := c.compiledFor(pl)
	if err != nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	res, err := c.engine.ExecuteCompiledSpan(cp, parent)
	if err != nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	c.replays.Add(1)
	return res, nil
}

// compiledFor resolves a plan to an instantiated graph: cache hit on the
// plan's key, singleflight compile on a miss. A hit whose cached graph was
// compiled from a different plan object (the planner re-planned after an
// invalidation) is patched in place when structurally compatible —
// GraphExecUpdate, not re-instantiation — and recompiled only when the
// path structure itself changed.
func (c *Context) compiledFor(pl *core.Plan) (*pipeline.CompiledPlan, error) {
	key := pl.Key()
	cp, err := c.graphs.Get(key, func() (*pipeline.CompiledPlan, error) {
		c.compiles.Add(1)
		return c.engine.Compile(pl)
	})
	if err != nil {
		return nil, err
	}
	if cp.Plan() == pl {
		return cp, nil
	}
	if pipeline.Patchable(cp.Plan(), pl) {
		if err := cp.UpdateTo(pl); err != nil {
			return nil, err
		}
		c.patches.Add(1)
		return cp, nil
	}
	nc, err := c.engine.Compile(pl)
	if err != nil {
		return nil, err
	}
	c.compiles.Add(1)
	c.graphs.Put(key, nc)
	return nc, nil
}

// execChunk executes one adaptive-executor chunk. Feeders keep a private
// compiled graph rather than going through the shared cache (pool chunk
// sizes vary chunk to chunk, so cache keys would never repeat): when the
// new chunk is structurally compatible — same path, same inner chunk
// count, only sizes or rates changed — the graph is patched and replayed;
// otherwise it is recompiled.
func (c *Context) execChunk(f *mpFeeder, pl *core.Plan, parent obs.SpanID) (*pipeline.Result, error) {
	if c.graphs == nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	if f.graph != nil && pipeline.Patchable(f.graph.Plan(), pl) {
		if err := f.graph.UpdateTo(pl); err == nil {
			if res, err := c.engine.ExecuteCompiledSpan(f.graph, parent); err == nil {
				c.patches.Add(1)
				c.replays.Add(1)
				return res, nil
			}
		}
	}
	f.releaseGraph()
	cp, err := c.engine.Compile(pl)
	if err != nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	c.compiles.Add(1)
	f.graph = cp
	res, err := c.engine.ExecuteCompiledSpan(cp, parent)
	if err != nil {
		return c.engine.ExecuteSpan(pl, parent)
	}
	c.replays.Add(1)
	return res, nil
}

// releaseGraph drops a feeder's private compiled graph, freeing its
// staging ring.
func (f *mpFeeder) releaseGraph() {
	if f.graph != nil {
		f.graph.Release()
		f.graph = nil
	}
}

// invalidateGraphsFor drops exactly the cached graphs that route bytes
// over any of the given excluded paths — a failover exclusion makes those
// topologies stale, but graphs avoiding the failed paths stay warm.
func (c *Context) invalidateGraphsFor(excluded map[hw.Path]bool) {
	if c.graphs == nil || len(excluded) == 0 {
		return
	}
	c.dropGraphs(func(cp *pipeline.CompiledPlan) bool {
		return planUsesAny(cp.Plan(), excluded)
	})
}

// dropGraphs invalidates the cached graphs drop selects, releasing their
// staging memory; replays already launched keep running.
func (c *Context) dropGraphs(drop func(*pipeline.CompiledPlan) bool) {
	c.invalidations.Add(int64(c.graphs.DropIf(drop)))
}

// planUsesAny reports whether any active path of the plan is in the set.
func planUsesAny(pl *core.Plan, set map[hw.Path]bool) bool {
	for i := range pl.Paths {
		if pl.Paths[i].Bytes > 0 && set[pl.Paths[i].Path] {
			return true
		}
	}
	return false
}
