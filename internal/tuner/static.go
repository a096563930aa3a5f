package tuner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/sim"
)

// StaticPlanner replays offline exhaustive-search results at runtime: the
// "Static Path Distribution" baseline of §5. It is built once per
// (topology, path set) from searches at a set of tuning sizes; at runtime
// it returns the tuned distribution for the nearest tuned size. It
// implements the ucx planner interface (same method set as core.Model).
type StaticPlanner struct {
	spec  *hw.Spec
	node  *hw.Node
	sizes []float64
	byN   map[float64]*Result
}

// NewStaticPlanner runs the exhaustive search at every tuning size on the
// reference pair (0,1) — valid because the preset topologies are symmetric
// across GPU pairs — and returns the replaying planner. With opts.Workers
// > 1 the per-size searches fan out over a worker pool (each search is an
// independent chain of private simulators, measured one grid point at a
// time).
func NewStaticPlanner(spec *hw.Spec, sel hw.PathSet, sizes []float64, opts SearchOptions) (*StaticPlanner, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("tuner: no tuning sizes")
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		return nil, err
	}
	sp := &StaticPlanner{
		spec: spec,
		node: node,
		byN:  make(map[float64]*Result, len(sizes)),
	}
	results := make([]*Result, len(sizes))
	err = par.ForEach(len(sizes), opts.Workers, func(i int) error {
		res, err := ExhaustiveSearch(spec, 0, 1, sel, sizes[i], opts)
		if err != nil {
			return fmt.Errorf("tuner: static search at n=%.0f: %w", sizes[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		sp.byN[n] = results[i]
		sp.sizes = append(sp.sizes, n)
	}
	sort.Float64s(sp.sizes)
	return sp, nil
}

// Entry returns the tuned result for a tuning size (for inspection).
func (sp *StaticPlanner) Entry(n float64) (*Result, bool) {
	r, ok := sp.byN[n]
	return r, ok
}

// nearestSize picks the tuned size closest to n in log space.
func (sp *StaticPlanner) nearestSize(n float64) float64 {
	best := sp.sizes[0]
	bestD := math.Inf(1)
	for _, s := range sp.sizes {
		d := math.Abs(math.Log(s) - math.Log(n))
		if d < bestD {
			bestD = d
			best = s
		}
	}
	return best
}

// PlanTransfer builds a plan for the given paths from the tuned
// distribution of the nearest tuning size.
func (sp *StaticPlanner) PlanTransfer(paths []hw.Path, n float64) (*core.Plan, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("tuner: no candidate paths")
	}
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, fmt.Errorf("tuner: invalid size %v", n)
	}
	res := sp.byN[sp.nearestSize(n)]
	if len(res.Thetas) != len(paths) {
		return nil, fmt.Errorf("tuner: tuned for %d paths, asked for %d", len(res.Thetas), len(paths))
	}
	plan, err := buildPlan(sp.node, paths, n, res.Thetas, ChunkPolicy{})
	if err != nil {
		return nil, err
	}
	// Replay the tuned chunk counts for paths that received a share.
	for i := range plan.Paths {
		if plan.Paths[i].Bytes > 0 && i < len(res.Chunks) && res.Chunks[i] > 0 {
			plan.Paths[i].Chunks = res.Chunks[i]
		}
	}
	return plan, nil
}
