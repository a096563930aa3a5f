// Package tuner provides the two configuration strategies the paper
// compares against its model:
//
//   - ExhaustiveSearch reproduces the *static* baseline ([35]): it grids
//     over share distributions (and chunk rules) and returns the
//     configuration that measures best on an idle machine. This is the
//     "observed optimal" that prediction error is reported against. It
//     skips a grid point only when a link-capacity lower bound on its
//     elapsed time proves it slower than a point already measured, so the
//     winner is the one measuring every point would pick.
//   - MeasurePlan / MeasurePlanWindow execute one fixed configuration and
//     report achieved bandwidth, used both by the search and by the
//     experiment drivers for the *dynamic* (model-driven) series.
package tuner

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// SearchOptions bound the exhaustive search.
type SearchOptions struct {
	// Step is the θ granularity (e.g. 0.10 for 10% steps).
	Step float64
	// Refine adds a second pass at Step/4 around the best point.
	Refine bool
	// ChunkRules lists candidate chunk policies to try per distribution.
	// Empty means {exact-law chunks}.
	ChunkRules []ChunkPolicy
	// EngineConfig for measurement runs.
	EngineConfig pipeline.Config
	// Workers bounds how many tuning sizes NewStaticPlanner searches
	// concurrently (each search runs on its own private simulators). 0 or
	// 1 runs them sequentially. ExhaustiveSearch itself measures one grid
	// point at a time, since each measurement decides whether the next is
	// needed, so its result, counts included, does not depend on Workers.
	Workers int
}

// ChunkPolicy names a chunk-count policy used during the search.
type ChunkPolicy struct {
	Name  string
	Fixed int // 0 = use the exact √ law per share
}

// DefaultSearchOptions matches the offline tuning effort of [35].
func DefaultSearchOptions() SearchOptions {
	return SearchOptions{
		Step:         0.10,
		Refine:       true,
		ChunkRules:   []ChunkPolicy{{Name: "exact"}},
		EngineConfig: pipeline.DefaultConfig(),
	}
}

// Result is the outcome of a search or measurement.
type Result struct {
	Thetas    []float64
	Chunks    []int
	Bandwidth float64 // bytes/second achieved
	Elapsed   float64
	// Measured counts the grid points the search simulated and Pruned
	// those its capacity bound skipped; they sum to the grid size.
	Measured int
	Pruned   int
}

// buildPlan constructs a concrete plan from fractional shares.
func buildPlan(node *hw.Node, paths []hw.Path, n float64, thetas []float64, policy ChunkPolicy) (*core.Plan, error) {
	plans := make([]core.PathPlan, len(paths))
	var assigned float64
	for i, p := range paths {
		param, err := core.ParamsFromSpec(node, p)
		if err != nil {
			return nil, err
		}
		share := thetas[i] * n
		if i == 0 {
			// Assign the remainder to the direct path at the end.
			share = 0
		}
		plans[i] = core.PathPlan{Path: p, Param: param, Theta: thetas[i], Bytes: share}
		assigned += share
	}
	plans[0].Bytes = n - assigned
	if plans[0].Bytes < 0 {
		return nil, fmt.Errorf("tuner: shares exceed message size")
	}
	for i := range plans {
		if plans[i].Bytes <= 0 {
			plans[i].Chunks = 0
			continue
		}
		if !plans[i].Param.Staged() {
			plans[i].Chunks = 1
			continue
		}
		if policy.Fixed > 0 {
			plans[i].Chunks = policy.Fixed
		} else {
			k := int(plans[i].Param.ExactChunks(plans[i].Bytes) + 0.5)
			if k < 1 {
				k = 1
			}
			if k > 64 {
				k = 64
			}
			plans[i].Chunks = k
		}
	}
	return &core.Plan{Src: paths[0].Src, Dst: paths[0].Dst, Bytes: n, Paths: plans}, nil
}

// MeasurePlan executes one plan on an idle instance of the machine and
// returns the elapsed time.
func MeasurePlan(spec *hw.Spec, plan *core.Plan, engCfg pipeline.Config) (float64, error) {
	return measureWindow(spec, plan, 1, engCfg)
}

// MeasurePlanWindow executes `window` concurrent instances of the plan
// (OSU-style windowed issue) and returns the aggregate elapsed time from
// first issue to last completion.
func MeasurePlanWindow(spec *hw.Spec, plan *core.Plan, window int, engCfg pipeline.Config) (float64, error) {
	return measureWindow(spec, plan, window, engCfg)
}

func measureWindow(spec *hw.Spec, plan *core.Plan, window int, engCfg pipeline.Config) (float64, error) {
	if window < 1 {
		return 0, fmt.Errorf("tuner: window %d", window)
	}
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		return 0, err
	}
	eng := pipeline.New(cuda.NewRuntime(node), engCfg)
	results := make([]*pipeline.Result, window)
	for i := 0; i < window; i++ {
		res, err := eng.Execute(plan)
		if err != nil {
			return 0, err
		}
		results[i] = res
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	var last float64
	for _, res := range results {
		if res.Done.Err() != nil {
			return 0, res.Done.Err()
		}
		if end := res.Done.FiredAt(); end > last {
			last = end
		}
	}
	return last, nil
}

// compositions enumerates share vectors over p paths with the given step,
// where the direct path (index 0) receives the remainder.
func compositions(p int, step float64, yield func([]float64)) {
	thetas := make([]float64, p)
	var rec func(idx int, remaining float64)
	rec = func(idx int, remaining float64) {
		if idx == p {
			if remaining >= -1e-9 {
				thetas[0] = remaining
				cp := append([]float64(nil), thetas...)
				yield(cp)
			}
			return
		}
		for f := 0.0; f <= remaining+1e-9; f += step {
			thetas[idx] = f
			rec(idx+1, remaining-f)
		}
	}
	rec(1, 1.0)
}

// candidate is one (share vector, chunk policy) grid point of the search.
type candidate struct {
	thetas []float64
	policy ChunkPolicy
}

// withPolicies pairs every share vector with every chunk rule (the exact
// √ law when opts names none), in enumeration order.
func withPolicies(thetas [][]float64, opts SearchOptions) []candidate {
	rules := opts.ChunkRules
	if len(rules) == 0 {
		rules = []ChunkPolicy{{Name: "exact"}}
	}
	cands := make([]candidate, 0, len(thetas)*len(rules))
	for _, th := range thetas {
		for _, policy := range rules {
			cands = append(cands, candidate{thetas: th, policy: policy})
		}
	}
	return cands
}

// coarseGrid enumerates the search's first pass over p paths: every share
// vector on the opts.Step grid.
func coarseGrid(p int, opts SearchOptions) []candidate {
	var thetas [][]float64
	compositions(p, opts.Step, func(th []float64) {
		thetas = append(thetas, th)
	})
	return withPolicies(thetas, opts)
}

// refineGrid enumerates the local refinement around the coarse winner
// base: every staged share perturbed by up to two steps of opts.Step/4,
// keeping the shares non-negative, with the direct path taking the rest.
func refineGrid(base []float64, opts SearchOptions) []candidate {
	fine := opts.Step / 4
	var refined [][]float64
	var rec func(idx int, cur []float64)
	rec = func(idx int, cur []float64) {
		if idx == len(base) {
			var sum float64
			for _, th := range cur[1:] {
				if th < 0 {
					return
				}
				sum += th
			}
			if sum > 1+1e-9 {
				return
			}
			cur[0] = 1 - sum
			refined = append(refined, append([]float64(nil), cur...))
			return
		}
		for d := -2; d <= 2; d++ {
			cur[idx] = base[idx] + float64(d)*fine
			rec(idx+1, cur)
		}
	}
	rec(1, append([]float64(nil), base...))
	return withPolicies(refined, opts)
}

// boundSlack shrinks every capacity bound by this relative amount before
// the search compares it, so float rounding in the bound's arithmetic
// cannot make it exceed a measured time and prune a candidate that ties.
const boundSlack = 1e-9

// linkLoad is the bytes a plan moves across one link.
type linkLoad struct {
	link  *fluid.Link
	bytes float64
}

// capacityBound returns a lower bound on the time plan takes on an idle
// machine. Each byte a path carries crosses every link of every leg of
// that path (a host-staged path crosses its memory channel twice), and
// max-min sharing never runs a link above its capacity, so no schedule
// finishes before its most loaded link has moved its bytes.
func capacityBound(node *hw.Node, plan *core.Plan) (float64, error) {
	var loads []linkLoad
	for _, pp := range plan.Paths {
		if pp.Bytes <= 0 {
			continue
		}
		legs, err := node.Legs(pp.Path)
		if err != nil {
			return 0, err
		}
		for _, leg := range legs {
			for _, l := range leg.Links {
				j := slices.IndexFunc(loads, func(ll linkLoad) bool { return ll.link == l })
				if j < 0 {
					j = len(loads)
					loads = append(loads, linkLoad{link: l})
				}
				loads[j].bytes += pp.Bytes
			}
		}
	}
	var bound float64
	for _, ll := range loads {
		bound = max(bound, ll.bytes/ll.link.Capacity())
	}
	return bound, nil
}

// evaluateCandidates is one branch-and-bound pass of the search. It builds
// every candidate's plan and bounds its elapsed time from below with
// capacityBound, then measures candidates one at a time in ascending bound
// order (ties by enumeration index). It stops at the first candidate that
// cannot reach the best bandwidth measured so far (best's, on entry):
// n/bound < best is strict, and every later candidate's bound is no
// smaller, so each candidate that could beat or tie the best is measured.
// The measured results are then folded into best in enumeration order with
// a strict improvement rule, so the winner is the first maximiser of the
// whole grid, as if every candidate had been measured.
func evaluateCandidates(spec *hw.Spec, node *hw.Node, paths []hw.Path, n float64,
	cands []candidate, opts SearchOptions, best *Result) error {
	plans := make([]*core.Plan, len(cands))
	bounds := make([]float64, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		plan, err := buildPlan(node, paths, n, c.thetas, c.policy)
		if err != nil {
			return err
		}
		bound, err := capacityBound(node, plan)
		if err != nil {
			return err
		}
		plans[i], bounds[i], order[i] = plan, bound*(1-boundSlack), i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	elapsed := make([]float64, len(cands)) // 0 = not measured
	top := best.Bandwidth
	measured := 0
	for ; measured < len(order) && n/bounds[order[measured]] >= top; measured++ {
		i := order[measured]
		e, err := MeasurePlan(spec, plans[i], opts.EngineConfig)
		if err != nil {
			return err
		}
		elapsed[i] = e
		top = max(top, n/e)
	}
	best.Measured += measured
	best.Pruned += len(cands) - measured

	for i, e := range elapsed {
		if e > 0 && n/e > best.Bandwidth {
			best.Bandwidth = n / e
			best.Elapsed = e
			best.Thetas = append([]float64(nil), cands[i].thetas...)
			best.Chunks = make([]int, len(plans[i].Paths))
			for j := range plans[i].Paths {
				best.Chunks[j] = plans[i].Paths[j].Chunks
			}
		}
	}
	return nil
}

// ExhaustiveSearch finds the empirically best static configuration for a
// transfer over a grid of share distributions: a coarse pass at opts.Step,
// then with opts.Refine a pass at Step/4 around the coarse winner. Each
// pass is a branch and bound (evaluateCandidates): it skips the grid
// points whose link-capacity bound proves them slower than a point
// already measured, and returns the same winner, bit for bit, as
// measuring every point would. Result.Measured and Result.Pruned count
// the points simulated and skipped. It measures one point at a time
// whatever opts.Workers is; NewStaticPlanner fans whole searches out
// instead.
func ExhaustiveSearch(spec *hw.Spec, src, dst int, sel hw.PathSet, n float64, opts SearchOptions) (*Result, error) {
	if opts.Step <= 0 || opts.Step > 1 {
		return nil, fmt.Errorf("tuner: invalid step %v", opts.Step)
	}
	paths, err := spec.EnumeratePaths(src, dst, sel)
	if err != nil {
		return nil, err
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		return nil, err
	}
	best := &Result{}
	if err := evaluateCandidates(spec, node, paths, n, coarseGrid(len(paths), opts), opts, best); err != nil {
		return nil, err
	}
	if opts.Refine && len(best.Thetas) > 0 {
		if err := evaluateCandidates(spec, node, paths, n, refineGrid(best.Thetas, opts), opts, best); err != nil {
			return nil, err
		}
	}
	return best, nil
}
