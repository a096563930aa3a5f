package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
)

// The figs workload regenerates the paper's full figure grid one cell at a
// time. A cell is one exp.FigN call restricted to one (cluster, path set),
// or the single fig4 call: 17 cells per regeneration. There is no seed;
// the grid is the paper's. Every regeneration is reassembled and must be
// byte-identical to the checked-in results_full.txt, which is what
// `mpbench -exp all` prints.

// figsRefFile is the checked-in output of a full regeneration.
const figsRefFile = "results_full.txt"

// figsRegens is how many whole regenerations the end-to-end metrics take,
// whatever --seconds says, so their op count (and with it the tail
// percentile) never depends on host speed. With 51 cells the tail (10
// cells beyond, p80.4) falls inside the band of the heaviest (fig6)
// cells; with 34 it sat on that band's lower edge and jumped between the
// two cheapest fig6 cells from run to run.
const figsRegens = 3

// figsMaxRegens bounds the regenerations a run may do to find figsRegens
// clean of host steal (a regeneration takes about 12 s on the reference
// host, twice that in a steal burst).
const figsMaxRegens = 4

// figsSetups is how many set-ups a run times. One takes about 50 us once
// warm; the median of 21 still fell among the first, colder ones and
// ranged 67-112 us over ten runs, the median of 201 45-55 us.
const figsSetups = 201

// figCell is one op of the figs workload.
type figCell struct {
	fig     string // fig4 .. fig7
	cluster string
	pathSet string
}

func (c figCell) String() string {
	if c.fig == "fig4" {
		return "fig4"
	}
	return c.fig + "/" + c.cluster + "/" + c.pathSet
}

// figCells lists one regeneration's cells in the order the full figures
// list their panels.
func figCells(opts exp.Options) []figCell {
	cells := []figCell{{fig: "fig4"}}
	for _, fig := range []string{"fig5", "fig6", "fig7"} {
		for _, cl := range opts.Clusters {
			for _, ps := range opts.PathSets {
				if fig == "fig7" && ps == "3gpus_host" {
					continue // Fig7 presents collectives without host staging
				}
				cells = append(cells, figCell{fig, cl, ps})
			}
		}
	}
	return cells
}

// run computes the cell through the public figure driver.
func (c figCell) run(opts exp.Options) (*exp.Figure, error) {
	if c.fig == "fig4" {
		return exp.Fig4(opts)
	}
	opts.Clusters = []string{c.cluster}
	opts.PathSets = []string{c.pathSet}
	switch c.fig {
	case "fig5":
		return exp.Fig5(opts)
	case "fig6":
		return exp.Fig6(opts)
	case "fig7":
		return exp.Fig7(opts)
	}
	return nil, fmt.Errorf("unknown figure %q", c.fig)
}

// assemble merges one regeneration's cell figures into fig4..fig7. A fig5
// or fig6 cell holds consecutive panels of the full figure (the window is
// the innermost grid loop), so cells concatenate. A fig7 cell holds one
// panel per collective, but the full figure loops over collectives
// outermost, so its panels interleave: every cell's first panel, then
// every cell's second.
func assemble(cells []figCell, figs []*exp.Figure) ([]*exp.Figure, error) {
	order := []string{"fig4", "fig5", "fig6", "fig7"}
	merged := map[string]*exp.Figure{}
	parts := map[string][][]exp.Panel{}
	for i, c := range cells {
		f := figs[i]
		if merged[c.fig] == nil {
			merged[c.fig] = &exp.Figure{ID: f.ID, Caption: f.Caption}
		}
		parts[c.fig] = append(parts[c.fig], f.Panels)
	}
	out := make([]*exp.Figure, 0, len(order))
	for _, id := range order {
		f := merged[id]
		if f == nil {
			return nil, fmt.Errorf("no cell produced %s", id)
		}
		if id == "fig7" {
			f.Panels = interleave(parts[id])
		} else {
			for _, ps := range parts[id] {
				f.Panels = append(f.Panels, ps...)
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// interleave transposes per-cell panel lists: panel 0 of every cell, then
// panel 1 of every cell, and so on.
func interleave(cells [][]exp.Panel) []exp.Panel {
	var out []exp.Panel
	for j := 0; ; j++ {
		added := false
		for _, ps := range cells {
			if j < len(ps) {
				out = append(out, ps[j])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// renderAll prints the figures and the headline exactly as
// `mpbench -exp all` does.
func renderAll(figs []*exp.Figure) ([]byte, exp.Headline, error) {
	var buf bytes.Buffer
	for _, f := range figs {
		if err := exp.RenderText(&buf, f); err != nil {
			return nil, exp.Headline{}, err
		}
		buf.WriteByte('\n')
	}
	h := exp.HeadlineFromFigures(figs[1], figs[2], figs[3])
	if err := exp.RenderHeadline(&buf, h); err != nil {
		return nil, exp.Headline{}, err
	}
	return buf.Bytes(), h, nil
}

// panelBlocks splits rendered figure text into its panel tables, keyed by
// figure ID and panel header line.
func panelBlocks(text string) map[string]string {
	blocks := map[string]string{}
	fig := ""
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "== ") {
			fig, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			continue
		}
		if !strings.HasPrefix(line, "-- ") {
			continue
		}
		j := i + 1
		for j < len(lines) && lines[j] != "" {
			j++
		}
		blocks[fig+"\x00"+line] = strings.Join(lines[i:j], "\n")
		i = j
	}
	return blocks
}

// figsRef is the set-up product: the cell list and the reference tables.
type figsRef struct {
	cells  []figCell
	full   []byte
	blocks map[string]string
}

func loadFigsRef(root string) (*figsRef, error) {
	full, err := os.ReadFile(filepath.Join(root, figsRefFile))
	if err != nil {
		return nil, err
	}
	return &figsRef{cells: figCells(exp.DefaultOptions()), full: full, blocks: panelBlocks(string(full))}, nil
}

// checkCell compares one cell's rendered panels with the reference.
func (r *figsRef) checkCell(f *exp.Figure) error {
	var buf bytes.Buffer
	if err := exp.RenderText(&buf, f); err != nil {
		return err
	}
	got := panelBlocks(buf.String())
	if len(got) == 0 || len(got) != len(f.Panels) {
		return fmt.Errorf("%s: rendered %d panel tables for %d panels", f.ID, len(got), len(f.Panels))
	}
	for k, block := range got {
		if r.blocks[k] != block {
			return fmt.Errorf("%s: panel %q differs from %s", f.ID, strings.SplitN(k, "\x00", 2)[1], figsRefFile)
		}
	}
	return nil
}

// figsPhase is the outcome of running whole regenerations.
type figsPhase struct {
	cells  int64
	failed int64
	cpu    float64
	secs   []float64 // wall time per cell
	errPct float64   // headline mean BW prediction error, n > 4 MiB
	gbps   float64   // fig5 dynamic-series goodput
}

// regenerate runs n full regenerations, checking every cell and every
// reassembly.
func (r *figsRef) regenerate(n int, tr *spans) (figsPhase, error) {
	opts := exp.DefaultOptions()
	opts.Workers = 1
	var ph figsPhase
	cpu0 := selfCPU()
	for k := 0; k < n; k++ {
		out := make([]*exp.Figure, len(r.cells))
		regenFailed := false
		for i, c := range r.cells {
			sp := tr.begin("cell:"+c.fig, -1)
			start := time.Now()
			f, err := c.run(opts)
			d := time.Since(start).Seconds()
			tr.end(sp)
			ph.cells++
			ph.secs = append(ph.secs, d)
			if err == nil {
				err = r.checkCell(f)
			}
			if err != nil {
				fmt.Printf("CHECK FAILED: cell %s: %v\n", c, err)
				ph.failed++
				regenFailed = true
				continue
			}
			out[i] = f
		}
		if regenFailed {
			continue
		}
		figs, err := assemble(r.cells, out)
		if err != nil {
			return ph, err
		}
		text, h, err := renderAll(figs)
		if err != nil {
			return ph, err
		}
		if !bytes.Equal(text, r.full) {
			fmt.Printf("CHECK FAILED: regeneration %d differs from %s\n", k, figsRefFile)
			ph.failed += int64(len(r.cells))
			continue
		}
		ph.errPct = h.MeanErrBWLargePct
		ph.gbps = dynamicGoodput(figs[1])
	}
	ph.cpu = selfCPU() - cpu0
	return ph, nil
}

// dynamicGoodput is bytes over simulated time across every point of the
// dynamic (model-driven) series of a bandwidth figure: the modelled
// machine's goodput, one message per point.
func dynamicGoodput(fig *exp.Figure) float64 {
	var bytes, secs float64
	for i := range fig.Panels {
		s := fig.Panels[i].FindSeries(exp.SeriesDynamic)
		if s == nil {
			continue
		}
		for _, pt := range s.Points {
			if pt.Value > 0 {
				bytes += pt.Bytes
				secs += pt.Bytes / pt.Value
			}
		}
	}
	if secs == 0 {
		return 0
	}
	return bytes / secs / 1e9
}

func runFigs(cfg config, rep *report) error {
	ref, setup, err := medianSetup(figsSetups, func() (*figsRef, error) { return loadFigsRef(cfg.root) }, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rep.set("setup_s", setup, "s")
	rep.notef("set-up (cell list + reference tables): median of %d = %.6f s; %d cells per regeneration", figsSetups, setup, len(ref.cells))

	if cfg.trace {
		return traceFigs(rep, ref)
	}
	// Each regeneration is one window; the metrics take figsRegens of them.
	var ws []timedWindow
	var errPct, gbps float64
	clock := windowClock{cpu: selfCPU}
	for clean := 0; clean < figsRegens && len(ws) < figsMaxRegens; {
		clock.open()
		ph, err := ref.regenerate(1, nil)
		if err != nil {
			return err
		}
		w := clock.close(ph.secs, ph.cells)
		if w.clean() {
			clean++
		}
		ws = append(ws, w)
		rep.attempted += ph.cells
		rep.failed += ph.failed
		if ph.gbps > 0 { // set only when the regeneration matched the reference
			errPct, gbps = ph.errPct, ph.gbps
		}
	}
	used, clean := pickWindows(ws, func(u []timedWindow) bool { return len(u) >= figsRegens })
	var secs []float64
	var cells int64
	var cpu float64
	for _, w := range used {
		secs = append(secs, w.secs...)
		cells += w.ops
		cpu += w.cpu
	}
	if err := setLatency(rep, "cell", secs); err != nil {
		return err
	}
	rep.set("ops_per_cpu_s", float64(cells)/cpu, "1/s")
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("pred_err_pct", errPct, "%")
	rep.set("sim_gbps", gbps, "GB/s")
	rep.notef("%d regenerations, %d clean (host steal <= %.0f%%), %d used; %d cells, %d failed, %.3f CPU-s in the used ones",
		len(ws), clean, 100*stealLimit, len(used), rep.attempted, rep.failed, cpu)
	return nil
}

// traceFigs runs one untraced regeneration, then one traced one under the
// CPU profiler.
func traceFigs(rep *report, ref *figsRef) error {
	zeroPerLayer(rep)
	const n = 1
	base, err := ref.regenerate(n, nil)
	if err != nil {
		return err
	}
	tr := newSpans()
	var ph figsPhase
	rt0 := readRuntime()
	a, err := cpuProfile(func() error {
		var err error
		ph, err = ref.regenerate(n, tr)
		return err
	})
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	rep.attempted += base.cells + ph.cells
	rep.failed += base.failed + ph.failed
	stats := summarize(tr)
	printSpans(rep, stats)
	setSelfTimes(rep, a, ph.cells)
	setRuntime(rep, rt0, rt1, ph.cells)
	for _, fig := range []string{"fig4", "fig5", "fig6", "fig7"} {
		if st := stats["cell:"+fig]; st != nil {
			rep.set("exp."+fig+"_s", st.total.Seconds()/float64(n), "s")
		}
	}
	setOverhead(rep, float64(base.cells)/base.cpu, float64(ph.cells)/ph.cpu)
	return nil
}
