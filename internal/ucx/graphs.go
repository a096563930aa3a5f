package ucx

// Compiled-graph execution: when Config.GraphsEnable is set, every
// attempt runs as a graph replay — whole-residual attempts through the
// graph cache (hash → replay on the warm path), pool chunks through their
// feeder's private graph — patched in place when only byte counts changed.
// With graphs disabled every attempt takes the eager engine path,
// byte-identical to the paper-figure behaviour.
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

// execPlan executes one attempt's plan on the eager engine or, with
// graphs enabled, as a replay of a compiled graph: the graph in *slot — a
// feeder's private graph, since pool chunk sizes vary chunk to chunk and
// cache keys would never repeat — or, when slot is nil, the shared cache's
// graph for the plan's key. Graph failures fall back to eager execution —
// the graph path is an optimization, never a correctness dependency. The
// parent span (NoSpan when tracing is off) becomes the parent of the
// per-path and replay spans the engine emits.
func (c *Context) execPlan(pl *core.Plan, slot **pipeline.CompiledPlan, parent obs.SpanID) (*pipeline.Result, error) {
	if c.graphs != nil {
		if cp, err := c.graphFor(pl, slot); err == nil {
			if res, err := c.engine.ExecuteCompiledSpan(cp, parent); err == nil {
				c.replays.Add(1)
				return res, nil
			}
		}
	}
	return c.engine.ExecuteSpan(pl, parent)
}

// graphFor resolves a plan to an instantiated graph, from the slot or the
// cache (a singleflight compile on a cache miss). A graph compiled from a
// different plan object — the planner re-planned, or the next pool chunk
// arrived — is patched in place when structurally compatible
// (GraphExecUpdate, not re-instantiation) and recompiled when the path or
// chunk structure changed or the patch failed; the recompiled graph
// replaces the one in the slot or cache, which releases it.
func (c *Context) graphFor(pl *core.Plan, slot **pipeline.CompiledPlan) (*pipeline.CompiledPlan, error) {
	var key uint64
	var cp *pipeline.CompiledPlan
	if slot != nil {
		cp = *slot
	} else {
		key = pl.Key()
		var err error
		cp, err = c.graphs.Get(key, func() (*pipeline.CompiledPlan, error) {
			c.compiles.Add(1)
			return c.engine.Compile(pl)
		})
		if err != nil {
			return nil, err
		}
	}
	if cp != nil {
		if cp.Plan() == pl {
			return cp, nil
		}
		if pipeline.Patchable(cp.Plan(), pl) && cp.UpdateTo(pl) == nil {
			c.patches.Add(1)
			return cp, nil
		}
	}
	nc, err := c.engine.Compile(pl)
	if err != nil {
		return nil, err
	}
	c.compiles.Add(1)
	if slot == nil {
		c.graphs.Put(key, nc)
		return nc, nil
	}
	if cp != nil {
		cp.Release()
	}
	*slot = nc
	return nc, nil
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
