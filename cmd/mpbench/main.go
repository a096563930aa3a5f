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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/ucx"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|headline|ext|obs2|shard|all")
		clusters = flag.String("clusters", "beluga,narval", "comma-separated cluster presets")
		pathSets = flag.String("paths", "2gpus,3gpus,3gpus_host", "comma-separated path sets")
		windows  = flag.String("windows", "1,16", "comma-separated OSU window sizes")
		quick    = flag.Bool("quick", false, "reduced grid for a fast smoke run")
		csvPath  = flag.String("csv", "", "also write figure data as CSV to this file")
		iters    = flag.Int("iters", 3, "measured iterations per point")
		parallel = flag.Bool("parallel", false,
			"fan independent grid points (panels, search points) across one worker per CPU; output is byte-identical to a sequential run")
		workers = flag.Int("workers", 0,
			"explicit worker count for -parallel (0 = one per CPU)")
		shardJSON = flag.String("shard-json", "BENCH_shard.json",
			"output path for -exp shard engine results (empty = don't write)")
		shards = flag.Int("shards", envShards(),
			"fleet shard count for -exp shard (0 = one shard per node; default honors UCX_MP_SHARDS)")
		tracePath = flag.String("trace", "",
			"write a Perfetto trace to this file: per-shard epoch tracks for -exp shard, "+
				"a fault-rich adaptive transfer (first cluster) otherwise")
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
	case "shard":
		opts.Shards = *shards
		fig, points, err := exp.ShardBench(opts)
		if err != nil {
			fatal("shard: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render shard: %v", err)
		}
		figures = append(figures, fig)
		if *shardJSON != "" {
			if err := writeShardJSON(*shardJSON, points); err != nil {
				fatal("write %s: %v", *shardJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote shard engine results to %s\n", *shardJSON)
		}
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

	if *tracePath != "" && *expName == "shard" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("create %s: %v", *tracePath, err)
		}
		info, err := exp.ShardTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote shard Perfetto trace (%d spans, %d instants, %d epochs) to %s\n",
			info.Spans, info.Instants, info.Epochs, *tracePath)
	} else if *tracePath != "" {
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

// envShards reads UCX_MP_SHARDS for the -shards default, delegating the
// value's validation to the ucx config parser so the CLI and the Config
// knob accept exactly the same syntax.
func envShards() int {
	v := os.Getenv("UCX_MP_SHARDS")
	if v == "" {
		return 0
	}
	cfg, err := ucx.ParseConfig(map[string]string{"UCX_MP_SHARDS": v})
	if err != nil {
		fatal("%v", err)
	}
	return cfg.Shards
}

// writeShardJSON records the sharded-engine comparison: fleet speedup vs
// the fused single-network baseline and the single-component overhead
// ladder, with the determinism checksum each row reproduced.
func writeShardJSON(path string, points []exp.ShardPoint) error {
	doc := struct {
		Description string           `json:"description"`
		Host        string           `json:"host"`
		Date        string           `json:"date"`
		Points      []exp.ShardPoint `json:"points"`
	}{
		Description: "Sharded event engine (mpbench -exp shard): 'fleet8' runs eight " +
			"contending nodes as one fused fluid network (baseline_ns) vs one " +
			"network per node on an 8-shard cluster, over a worker ladder. The " +
			"fused network re-rates only the component an event touches, so the " +
			"speedup comes from per-node settlement (the fused network settles " +
			"every flow of the fleet at every event instant) plus epoch " +
			"parallelism where cores exist. " +
			"'single' runs one node on the plain engine vs clusters of 1/2/8 " +
			"shards, measuring pure epoch-machinery overhead (overhead_pct must " +
			"stay flat and small). checksum is FNV-64a over every completion " +
			"time's bit pattern and must be identical across shard and worker " +
			"counts — the deterministic-merge contract. Wall-clock fields are " +
			"host-dependent; checksums and epoch counts are deterministic.",
		Host:   fmt.Sprintf("GOMAXPROCS=%d, %s %s/%s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Date:   time.Now().Format("2006-01-02"),
		Points: points,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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
