// Compiled transfer graphs: instead of eagerly enqueuing a plan's
// stream/event schedule on every Execute, the engine can lower the plan
// once into a cuda.Graph — the same chunked k-way pipelines, ring-buffer
// constraints, and cross-stream event edges, captured as an immutable
// DAG — and replay it per transfer with a single graph launch.
//
// The cost model difference is the point (and mirrors the follow-on
// paper, "Accelerating Intra-Node GPU-to-GPU Communication Through
// Multi-Path Transfers with CUDA Graphs"): eager execution pays the
// per-path launch latency α sequentially (Algorithm 1 line 18) and a
// synchronization cost ε per chunk per window; a compiled graph pays one
// launch overhead per replay — the dependencies are baked in, so nothing
// else is charged. For small and medium messages, where ε·k and the
// accumulated α dominate, this visibly bends the bandwidth curves upward.
package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/obs"
)

// compiledPath is the lowered form of one active plan path; its index in
// CompiledPlan.paths is its graph completion group.
type compiledPath struct {
	idx int // index into plan.Paths
	// leg1/leg2 are the copy-node IDs per chunk (leg2 empty for direct
	// paths, whose single copy lives in leg1[0]). Kept in chunk order so
	// byte patching walks them deterministically.
	leg1, leg2 []int
	// staging ring bookkeeping for reallocation on patch.
	buf       stagingBuffer
	slotBytes float64
	slots     int
}

// CompiledPlan is a plan lowered into an instantiated transfer graph.
// Replays are issued with ExecuteCompiledSpan; UpdateTo patches byte counts
// in place for a structurally identical plan (same paths, same chunk
// counts) without re-instantiation.
type CompiledPlan struct {
	engine   *Engine
	plan     *core.Plan
	exec     *cuda.GraphExec
	paths    []compiledPath
	released bool
}

// Plan returns the plan the graph currently encodes (the compile-time
// plan, or the last plan patched in with UpdateTo).
func (cp *CompiledPlan) Plan() *core.Plan { return cp.plan }

// launchOverheadFor derives the per-replay launch cost for a plan: the
// largest staging synchronization cost ε among the active paths, read from
// the topology (not the plan's params, which a graph-aware planner zeroes).
// Eager execution pays ε once per chunk per window and serializes path
// initiations; a graph replay pays ε exactly once — the launch that
// submits the whole baked DAG. A direct-only plan has ε = 0 and replays
// with no added overhead, matching eager execution of the same plan.
func (e *Engine) launchOverheadFor(plan *core.Plan) float64 {
	node := e.rt.Node()
	worst := 0.0
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		if eps := node.Epsilon(pp.Path); eps > worst {
			worst = eps
		}
	}
	return worst
}

// Compile lowers the plan into a transfer graph and instantiates it. The
// capture writes Execute's schedule through the same writer (writePath) —
// per-path streams, the chunked staging pipeline with its ring-buffer
// waits — minus the eager-only overheads (per-chunk ε delays, sequential
// path initiation), which the single launch overhead replaces. Staging
// memory is allocated at compile time and held for the compiled plan's
// lifetime; call Release to return it.
func (e *Engine) Compile(plan *core.Plan) (*CompiledPlan, error) {
	if _, err := validatePlan(plan); err != nil {
		return nil, err
	}
	g := e.rt.NewGraph()
	cp := &CompiledPlan{engine: e, plan: plan}
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		g.StartGroup(len(cp.paths))
		lowered, err := e.writePath(pp, g, nil)
		lowered.idx = i
		cp.paths = append(cp.paths, lowered)
		if err != nil {
			cp.freeBuffers()
			return nil, err
		}
	}
	g.End()
	exec, err := g.Instantiate(e.launchOverheadFor(plan))
	if err != nil {
		cp.freeBuffers()
		return nil, err
	}
	cp.exec = exec
	if e.tr != nil {
		e.tr.Instant("graph", "graph", "compile",
			obs.KVi("nodes", int64(g.NodeCount())),
			obs.KVi("paths", int64(len(cp.paths))),
			obs.KVf("bytes", plan.Bytes))
	}
	return cp, nil
}

// ExecuteCompiledSpan replays the compiled graph once and returns a Result
// with the same shape Execute produces: per-path completion times and
// errors, and a Done signal firing when the last byte lands. The launch
// itself is O(1) in the chunk and window count — the DAG unrolls inside
// simulator events. With a tracer attached the replay records a span on
// the graph track, parented under parent, from launch to completion.
func (e *Engine) ExecuteCompiledSpan(cp *CompiledPlan, parent obs.SpanID) (*Result, error) {
	if cp.released {
		return nil, fmt.Errorf("pipeline: replay of a released compiled plan")
	}
	s := e.rt.Sim()
	run := &replayRun{Result: newResult(cp.plan, s.Now()), e: e, paths: cp.paths}
	run.rep = cp.exec.Launch()
	for i := range cp.paths {
		run.rep.GroupDone(i).OnFireHandler(run, i)
	}
	run.Done = run.rep.Done()
	if e.tr != nil {
		run.span = e.tr.Begin("graph", "graph", "replay", parent,
			obs.KVf("bytes", cp.plan.Bytes), obs.KVi("paths", int64(len(cp.paths))))
		run.Done.OnFireHandler(run, replaySpanEnd)
	}
	return &run.Result, nil
}

// replayRun is the record behind one compiled execution: the Result handed
// to the caller and the handler recording each path's group completion.
type replayRun struct {
	Result
	e     *Engine
	rep   *cuda.Replay
	paths []compiledPath
	span  obs.SpanID
}

// replaySpanEnd is the replayRun argument closing the replay's trace span;
// other arguments index the compiled paths.
const replaySpanEnd = -1

func (r *replayRun) Handle(arg int) {
	if arg == replaySpanEnd {
		if err := r.Done.Err(); err != nil {
			r.e.tr.EndWith(r.span, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
			return
		}
		r.e.tr.EndWith(r.span, obs.KV("outcome", "ok"))
		return
	}
	idx := r.paths[arg].idx
	r.PathDone[idx] = r.e.rt.Sim().Now()
	r.PathErr[idx] = r.rep.GroupDone(arg).Err()
}

// Patchable reports whether a compiled graph built from `from` can be
// re-pointed at `to` by parameter update alone: the path lists must match
// exactly, with the same set of active paths and the same per-path chunk
// counts. Share rebalances and byte-count changes are patchable;
// structural changes (a path entering or leaving the plan, a chunk-count
// change) require recompilation.
func Patchable(from, to *core.Plan) bool {
	if from == nil || to == nil || len(from.Paths) != len(to.Paths) {
		return false
	}
	for i := range from.Paths {
		a, b := &from.Paths[i], &to.Paths[i]
		if a.Path != b.Path {
			return false
		}
		activeA, activeB := a.Bytes > 0, b.Bytes > 0
		if activeA != activeB {
			return false
		}
		if activeA && a.Chunks != b.Chunks {
			return false
		}
	}
	return true
}

// UpdateTo patches the compiled graph's byte parameters to encode plan —
// a GraphExecUpdate, not a re-instantiation. The plan must be Patchable
// from the currently encoded one. Staging rings grow in place when the
// new chunk size exceeds the allocated slot size.
func (cp *CompiledPlan) UpdateTo(plan *core.Plan) error {
	if cp.released {
		return fmt.Errorf("pipeline: UpdateTo on a released compiled plan")
	}
	if _, err := validatePlan(plan); err != nil {
		return err
	}
	if !Patchable(cp.plan, plan) {
		return fmt.Errorf("pipeline: plan not patchable onto compiled graph (structure changed)")
	}
	var nodes []int
	var bytes []float64
	for pi := range cp.paths {
		lp := &cp.paths[pi]
		pp := &plan.Paths[lp.idx]
		sizes := SplitChunks(pp.Bytes, len(lp.leg1))
		for c, id := range lp.leg1 {
			nodes = append(nodes, id)
			bytes = append(bytes, sizes[c])
		}
		for c, id := range lp.leg2 {
			nodes = append(nodes, id)
			bytes = append(bytes, sizes[c])
		}
		if slot := pp.Bytes / float64(len(lp.leg1)); lp.buf != nil && slot > lp.slotBytes {
			// Allocate the grown ring before freeing the old one, so a
			// failed growth leaves the graph holding the ring it replays.
			buf, err := cp.engine.allocStaging(pp.Path, slot*float64(lp.slots))
			if err != nil {
				return err
			}
			old := lp.buf
			lp.buf, lp.slotBytes = buf, slot
			if err := old.Free(); err != nil {
				return err
			}
		}
	}
	if err := cp.exec.UpdateBytes(nodes, bytes); err != nil {
		return err
	}
	if err := cp.exec.SetLaunchOverhead(cp.engine.launchOverheadFor(plan)); err != nil {
		return err
	}
	cp.plan = plan
	return nil
}

// Release frees the compiled plan's staging memory. Further replays are
// rejected. Releasing twice is a no-op.
func (cp *CompiledPlan) Release() {
	if cp.released {
		return
	}
	cp.released = true
	cp.freeBuffers()
}

func (cp *CompiledPlan) freeBuffers() {
	for i := range cp.paths {
		if cp.paths[i].buf != nil {
			_ = cp.paths[i].buf.Free()
			cp.paths[i].buf = nil
		}
	}
}
