// Command mpbench regenerates the paper's evaluation: figures 4-7 and the
// headline aggregate table, printed as text tables and optionally written
// as CSV.
//
// Usage:
//
//	mpbench -exp all                          # everything, full grid
//	mpbench -exp all -parallel                # same tables, all CPUs
//	mpbench -exp fig5 -clusters beluga        # one figure, one cluster
//	mpbench -exp headline -quick              # reduced grid smoke run
//	mpbench -exp fig6 -csv out.csv            # also dump CSV
//	mpbench -exp ext                          # extensions, faults and graphs included
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/hw"
	"repro/internal/par"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|headline|ext|obs2|all")
		clusters = flag.String("clusters", "beluga,narval", "comma-separated cluster presets")
		pathSets = flag.String("paths", "2gpus,3gpus,3gpus_host", "comma-separated path sets")
		windows  = flag.String("windows", "1,16", "comma-separated OSU window sizes")
		quick    = flag.Bool("quick", false, "reduced grid for a fast smoke run")
		csvPath  = flag.String("csv", "", "also write figure data as CSV to this file")
		iters    = flag.Int("iters", 3, "measured iterations per point")
		parallel = flag.Bool("parallel", false,
			"fan independent grid points (panels, static tuning sizes) across one worker per CPU; output is byte-identical to a sequential run")
		workers = flag.Int("workers", 0,
			"explicit worker count for -parallel (0 = one per CPU)")
		tracePath = flag.String("trace", "",
			"write a Perfetto trace of a fault-rich adaptive transfer (first cluster) to this file")
	)
	flag.Parse()

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	} else {
		opts.Clusters = splitList(*clusters)
		opts.PathSets = splitList(*pathSets)
		opts.Windows = nil
		for _, w := range splitList(*windows) {
			var v int
			if _, err := fmt.Sscanf(w, "%d", &v); err != nil || v < 1 {
				fatal("bad window %q", w)
			}
			opts.Windows = append(opts.Windows, v)
		}
		opts.Iters = *iters
	}
	for _, c := range opts.Clusters {
		if _, ok := hw.Presets[c]; !ok {
			fatal("unknown cluster %q (have: beluga, narval, nvswitch, synthetic)", c)
		}
	}
	if *parallel || *workers > 1 {
		w := *workers
		if w <= 0 {
			w = par.DefaultWorkers()
		}
		opts.Workers = w
		opts.Search.Workers = w
	}

	var figures []*exp.Figure
	run := func(name string, gen func(exp.Options) (*exp.Figure, error)) {
		fig, err := gen(opts)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render %s: %v", name, err)
		}
		fmt.Println()
		figures = append(figures, fig)
	}

	switch *expName {
	case "fig4":
		run("fig4", exp.Fig4)
	case "fig5":
		run("fig5", exp.Fig5)
	case "fig6":
		run("fig6", exp.Fig6)
	case "fig7":
		run("fig7", exp.Fig7)
	case "ext":
		run("ext-bidir", exp.ExtBidirAware)
		run("ext-pattern", exp.ExtPatternAware)
		run("ext-adaptive-phi", exp.ExtAdaptivePhi)
		run("ext-nvswitch", exp.ExtNVSwitch)
		run("ext-internode", exp.ExtInterNode)
		run("ext-faults", exp.ExtFaults)
		run("ext-graphs", exp.ExtGraphs)
	case "obs2":
		run("obs2-window", exp.ObsWindowScaling)
	case "headline":
		h, f5, f6, f7, err := exp.RunHeadline(opts)
		if err != nil {
			fatal("headline: %v", err)
		}
		figures = append(figures, f5, f6, f7)
		if err := exp.RenderHeadline(os.Stdout, h); err != nil {
			fatal("render headline: %v", err)
		}
	case "all":
		run("fig4", exp.Fig4)
		run("fig5", exp.Fig5)
		run("fig6", exp.Fig6)
		run("fig7", exp.Fig7)
		h := exp.HeadlineFromFigures(figures[1], figures[2], figures[3])
		if err := exp.RenderHeadline(os.Stdout, h); err != nil {
			fatal("render headline: %v", err)
		}
	default:
		fatal("unknown experiment %q", *expName)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal("create %s: %v", *csvPath, err)
		}
		defer f.Close()
		for _, fig := range figures {
			if err := exp.WriteCSV(f, fig); err != nil {
				fatal("write csv: %v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote CSV to %s\n", *csvPath)
	}

	if *tracePath != "" {
		cluster := "beluga"
		if len(opts.Clusters) > 0 {
			cluster = opts.Clusters[0]
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("create %s: %v", *tracePath, err)
		}
		info, err := exp.ObsTrace(cluster, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote Perfetto trace (%d spans, %d instants) to %s\n",
			info.Spans, info.Instants, *tracePath)
		// Run footer: the traced run's unified stats snapshot.
		fmt.Println("traced run stats:")
		if err := info.Stats.WriteJSON(os.Stdout); err != nil {
			fatal("stats: %v", err)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpbench: "+format+"\n", args...)
	os.Exit(1)
}
