// Package exp drives the paper's evaluation (§5): it regenerates every
// figure as data series — Fig. 4 (θ distribution), Fig. 5 (unidirectional
// bandwidth), Fig. 6 (bidirectional bandwidth), Fig. 7 (collective
// speedups) — plus the headline aggregate table (prediction error and
// maximum speedups). Results are plain series that render as text tables
// or CSV.
package exp

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/ucx"
)

// Point is one measured or predicted sample.
type Point struct {
	Bytes float64
	Value float64
}

// Series is a named curve within a panel.
type Series struct {
	Name   string
	Points []Point
}

// Value returns the value at the given size (ok=false if absent).
func (s *Series) Value(bytes float64) (float64, bool) {
	for _, p := range s.Points {
		if p.Bytes == bytes {
			return p.Value, true
		}
	}
	return 0, false
}

// Panel is one subplot of a figure.
type Panel struct {
	Title  string
	YLabel string
	// XLabel names the x coordinate; empty means message size in bytes
	// (rendered with binary-unit suffixes). Any other label renders the
	// raw value.
	XLabel string
	Series []Series
}

// FindSeries returns the series with the given name, or nil.
func (p *Panel) FindSeries(name string) *Series {
	for i := range p.Series {
		if p.Series[i].Name == name {
			return &p.Series[i]
		}
	}
	return nil
}

// Figure is a full paper figure.
type Figure struct {
	ID      string
	Caption string
	Panels  []Panel
}

// Options configure the evaluation grid.
type Options struct {
	// Clusters are topology preset names.
	Clusters []string
	// PathSets are the multi-path configurations (paper labels).
	PathSets []string
	// Sizes is the P2P message sweep.
	Sizes []float64
	// CollSizes is the per-rank sweep for collectives.
	CollSizes []float64
	// Windows are the OSU window sizes.
	Windows []int
	// Warmup and Iters control each measurement.
	Warmup, Iters int
	// Search configures the offline static tuning.
	Search tuner.SearchOptions
	// Workers bounds how many grid points (panels) are simulated
	// concurrently. Each panel runs on its own private simulators, so the
	// produced figures are identical to a sequential run; only wall-clock
	// changes. 0 or 1 means sequential.
	Workers int
}

// DefaultOptions reproduces the paper's full grid.
func DefaultOptions() Options {
	var sizes []float64
	for n := 2 * hw.MiB; n <= 512*hw.MiB; n *= 2 {
		sizes = append(sizes, float64(n))
	}
	var coll []float64
	for n := 2 * hw.MiB; n <= 128*hw.MiB; n *= 2 {
		coll = append(coll, float64(n))
	}
	return Options{
		Clusters:  []string{"beluga", "narval"},
		PathSets:  []string{"2gpus", "3gpus", "3gpus_host"},
		Sizes:     sizes,
		CollSizes: coll,
		Windows:   []int{1, 16},
		Warmup:    1,
		Iters:     3,
		Search:    tuner.DefaultSearchOptions(),
	}
}

// QuickOptions is a reduced grid for tests and smoke runs.
func QuickOptions() Options {
	search := tuner.DefaultSearchOptions()
	search.Step = 0.25
	search.Refine = false
	return Options{
		Clusters:  []string{"beluga"},
		PathSets:  []string{"2gpus"},
		Sizes:     []float64{8 * hw.MiB, 64 * hw.MiB},
		CollSizes: []float64{16 * hw.MiB},
		Windows:   []int{1},
		Warmup:    1,
		Iters:     1,
		Search:    search,
	}
}

// specFor resolves a cluster name to its topology.
func specFor(cluster string) (*hw.Spec, error) {
	mk, ok := hw.Presets[cluster]
	if !ok {
		return nil, fmt.Errorf("exp: unknown cluster %q", cluster)
	}
	return mk(), nil
}

// pathSetLabel renders the paper's panel label for a path set name.
func pathSetLabel(ps string) string {
	switch ps {
	case "2gpus":
		return "2 GPU paths"
	case "3gpus":
		return "3 GPU paths"
	case "3gpus_host":
		return "3 GPUs & host"
	default:
		return ps
	}
}

// modelFor builds a fresh oracle-driven planner for a cluster/path set.
func modelFor(spec *hw.Spec, psName string) (*hw.Node, *core.Model, []hw.Path, error) {
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		return nil, nil, nil, err
	}
	sel, err := ucx.PathSetByName(psName)
	if err != nil {
		return nil, nil, nil, err
	}
	paths, err := spec.EnumeratePaths(0, 1, sel)
	if err != nil {
		return nil, nil, nil, err
	}
	model := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions())
	return node, model, paths, nil
}

// staticPlannerKey caches offline tunings per cluster and path set.
type staticPlannerKey struct {
	cluster string
	pathSet string
}

// plannerCache shares offline static tunings across panels of one
// experiment run: the first panel needing a tuning builds it, concurrent
// panels wait on the same sync.OnceValues and share its result, error
// included (the search is deterministic, so a retry would fail the same
// way). The expensive exhaustive search never runs twice for one
// (cluster, path set).
type plannerCache struct {
	opts   Options
	mu     sync.Mutex
	builds map[staticPlannerKey]func() (*tuner.StaticPlanner, error)
}

func newPlannerCache(opts Options) *plannerCache {
	return &plannerCache{opts: opts, builds: make(map[staticPlannerKey]func() (*tuner.StaticPlanner, error))}
}

func (pc *plannerCache) get(cluster, pathSet string) (*tuner.StaticPlanner, error) {
	key := staticPlannerKey{cluster, pathSet}
	pc.mu.Lock()
	build, ok := pc.builds[key]
	if !ok {
		build = sync.OnceValues(func() (*tuner.StaticPlanner, error) {
			spec, err := specFor(cluster)
			if err != nil {
				return nil, err
			}
			sel, err := ucx.PathSetByName(pathSet)
			if err != nil {
				return nil, err
			}
			return tuner.NewStaticPlanner(spec, sel, pc.opts.Sizes, pc.opts.Search)
		})
		pc.builds[key] = build
	}
	pc.mu.Unlock()
	return build()
}
