package exp

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/omb"
	"repro/internal/par"
)

// graphSizes is the message sweep of the compiled-graph comparison: it
// extends the paper grid downward to 256 KiB because small and medium
// messages are where the eliminated per-chunk ε and per-path α overheads
// dominate.
func graphSizes() []float64 {
	var sizes []float64
	for n := 256 * hw.KiB; n <= 64*hw.MiB; n *= 2 {
		sizes = append(sizes, float64(n))
	}
	return sizes
}

// ExtGraphs quantifies the compiled-transfer-graph fast path: the same OMB
// bandwidth sweep run twice per (cluster, window) cell, once through the
// eager (interpreted) engine and once with UCX_MP_GRAPHS on. Both series
// are simulated time, so the figure is deterministic.
func ExtGraphs(opts Options) (*Figure, error) {
	fig := &Figure{
		ID:      "ext-graphs",
		Caption: "Extension: compiled transfer graphs, interpreted vs single-launch replay",
	}
	type gridPoint struct {
		cluster string
		window  int
	}
	var grid []gridPoint
	for _, cluster := range opts.Clusters {
		for _, window := range opts.Windows {
			grid = append(grid, gridPoint{cluster, window})
		}
	}
	panels := make([]*Panel, len(grid))
	err := par.ForEach(len(grid), opts.Workers, func(i int) error {
		panel, err := graphBandwidthPanel(grid[i].cluster, grid[i].window, opts)
		panels[i] = panel
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, panel := range panels {
		fig.Panels = append(fig.Panels, *panel)
	}
	return fig, nil
}

// graphBandwidthPanel measures one (cluster, window) cell: the OMB
// unidirectional sweep with graphs off, then on. The warmup iteration
// heats the graph cache, so the measured compiled iterations are warm
// replays (hash → replay, no compile in the timed window).
func graphBandwidthPanel(cluster string, window int, opts Options) (*Panel, error) {
	spec, err := specFor(cluster)
	if err != nil {
		return nil, err
	}
	sizes := graphSizes()
	base := omb.DefaultP2PConfig(spec)
	base.Window = window
	base.Warmup = opts.Warmup
	if base.Warmup < 1 {
		base.Warmup = 1 // the compiled series must measure warm replays
	}
	base.Iters = opts.Iters

	interp, err := omb.BW(base, sizes)
	if err != nil {
		return nil, fmt.Errorf("exp: graphs interpreted (%s win=%d): %w", cluster, window, err)
	}
	cfg := base
	cfg.UCX.GraphsEnable = true
	compiled, err := omb.BW(cfg, sizes)
	if err != nil {
		return nil, fmt.Errorf("exp: graphs compiled (%s win=%d): %w", cluster, window, err)
	}

	panel := &Panel{
		Title:  fmt.Sprintf("graphs on %s; win=%d", cluster, window),
		YLabel: "bandwidth (GB/s)",
	}
	var si, sc, sp Series
	si.Name, sc.Name, sp.Name = "interpreted", "compiled", "speedup_%"
	for i, n := range sizes {
		ib, cb := interp[i].Bandwidth, compiled[i].Bandwidth
		pct := 0.0
		if ib > 0 {
			pct = 100 * (cb/ib - 1)
		}
		si.Points = append(si.Points, Point{Bytes: n, Value: ib})
		sc.Points = append(sc.Points, Point{Bytes: n, Value: cb})
		sp.Points = append(sp.Points, Point{Bytes: n, Value: pct})
	}
	panel.Series = []Series{si, sc, sp}
	return panel, nil
}
