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
//	mpbench -exp faults                       # fault-adaptation sweep
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
		expName  = flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|headline|ext|obs|obs2|plancache|faults|graphs|shard|serve|all")
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
		plannerJSON = flag.String("planner-json", "BENCH_planner.json",
			"output path for -exp plancache throughput results (empty = don't write)")
		faultsJSON = flag.String("faults-json", "BENCH_faults.json",
			"output path for -exp faults results (empty = don't write)")
		graphsJSON = flag.String("graphs-json", "BENCH_graphs.json",
			"output path for -exp graphs results (empty = don't write)")
		obsJSON = flag.String("obs-json", "BENCH_obs.json",
			"output path for -exp obs overhead results (empty = don't write)")
		shardJSON = flag.String("shard-json", "BENCH_shard.json",
			"output path for -exp shard engine results (empty = don't write)")
		serveJSON = flag.String("serve-json", "BENCH_serve.json",
			"output path for -exp serve daemon results (empty = don't write)")
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
	case "obs2":
		run("obs2-window", exp.ObsWindowScaling)
	case "plancache":
		fig, points, err := exp.PlanCacheBench(opts)
		if err != nil {
			fatal("plancache: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render plancache: %v", err)
		}
		figures = append(figures, fig)
		if *plannerJSON != "" {
			if err := writePlannerJSON(*plannerJSON, points); err != nil {
				fatal("write %s: %v", *plannerJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote planner throughput to %s\n", *plannerJSON)
		}
	case "faults":
		fig, points, err := exp.Faults(opts)
		if err != nil {
			fatal("faults: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render faults: %v", err)
		}
		figures = append(figures, fig)
		if *faultsJSON != "" {
			if err := writeFaultsJSON(*faultsJSON, points); err != nil {
				fatal("write %s: %v", *faultsJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote fault adaptation results to %s\n", *faultsJSON)
		}
	case "graphs":
		if *quick {
			// Smoke run: one size on one cluster, at the size where the
			// multi-path split first kicks in and the compiled/interpreted
			// gap is visible.
			opts.Sizes = []float64{4 * hw.MiB}
		} else {
			// Extend the sweep below the paper grid: the eliminated
			// per-chunk/per-path overheads matter most at small sizes.
			opts.Sizes = exp.GraphSizes()
		}
		fig, points, launch, err := exp.GraphsBench(opts)
		if err != nil {
			fatal("graphs: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render graphs: %v", err)
		}
		figures = append(figures, fig)
		if *graphsJSON != "" {
			if err := writeGraphsJSON(*graphsJSON, points, launch); err != nil {
				fatal("write %s: %v", *graphsJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote compiled-graph results to %s\n", *graphsJSON)
		}
	case "obs":
		if *quick {
			opts.Sizes = []float64{4 * hw.MiB}
		}
		fig, points, err := exp.ObsBench(opts)
		if err != nil {
			fatal("obs: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render obs: %v", err)
		}
		figures = append(figures, fig)
		if *obsJSON != "" {
			if err := writeObsJSON(*obsJSON, points); err != nil {
				fatal("write %s: %v", *obsJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote observability overhead to %s\n", *obsJSON)
		}
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
	case "serve":
		if *quick {
			// Smoke shape: a few batches per series, still end-to-end over
			// real sockets.
			opts.ServePlans = 8 * exp.ServeBatchSize
		}
		fig, points, err := exp.ServeBench(opts)
		if err != nil {
			fatal("serve: %v", err)
		}
		if err := exp.RenderText(os.Stdout, fig); err != nil {
			fatal("render serve: %v", err)
		}
		figures = append(figures, fig)
		if *serveJSON != "" {
			if err := writeServeJSON(*serveJSON, points); err != nil {
				fatal("write %s: %v", *serveJSON, err)
			}
			fmt.Fprintf(os.Stderr, "wrote plan-serving results to %s\n", *serveJSON)
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

// writeObsJSON records the observability overhead sweep: wall-clock ns per
// Put with tracing off and on, plus the enabled run's event volume.
func writeObsJSON(path string, points []exp.ObsPoint) error {
	doc := struct {
		Description string         `json:"description"`
		Host        string         `json:"host"`
		Date        string         `json:"date"`
		Points      []exp.ObsPoint `json:"points"`
	}{
		Description: "Observability overhead (mpbench -exp obs): the same Put-window " +
			"workload per (cluster, size) cell with UCX_MP_TRACE off vs on, " +
			"wall-clock timed. disabled_ns_per_op is the hook cost with tracing " +
			"off (every hook is one nil pointer check; must sit within noise of " +
			"the untouched seed), enabled_ns_per_op adds span/instant recording " +
			"and metric updates, and spans/instants give the enabled run's event " +
			"volume. ns/op fields are host-dependent wall clock; counts are " +
			"deterministic simulation.",
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

// writePlannerJSON records the planning-throughput sweep (ops/sec and hit
// ratio per goroutine count) together with the host fingerprint, in the
// same spirit as BENCH_fluid.json.
func writePlannerJSON(path string, points []exp.PlanCachePoint) error {
	type seedRef struct {
		Bench       string  `json:"bench"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int     `json:"allocs_per_op"`
	}
	doc := struct {
		Description string               `json:"description"`
		Host        string               `json:"host"`
		Date        string               `json:"date"`
		Seed        seedRef              `json:"seed_reference"`
		OpsPerGor   int                  `json:"ops_per_goroutine"`
		Points      []exp.PlanCachePoint `json:"points"`
	}{
		Description: "Concurrent planning throughput of the sharded plan cache " +
			"(mpbench -exp plancache): ops/sec and hit ratio per goroutine count. " +
			"'warm' is the steady-state all-hit path, 'churn' forces a fresh key " +
			"every 64 ops, 'quantized' runs churn with size-class sharing on. " +
			"Compare warm ns_per_op against seed_reference (the pre-rework " +
			"string-key cache hit, recorded once); BenchmarkPlanCacheHit and " +
			"BenchmarkPlanCacheHitLegacyStringKey re-measure both on any host.",
		Host: fmt.Sprintf("GOMAXPROCS=%d, %s %s/%s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Date: time.Now().Format("2006-01-02"),
		Seed: seedRef{
			Bench:       "BenchmarkAblationConfigCacheWarm @ seed (fmt string key, unsharded map)",
			NsPerOp:     1909,
			AllocsPerOp: 6,
		},
		OpsPerGor: exp.PlanCacheOpsPerGoroutine,
		Points:    points,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeFaultsJSON records the fault-adaptation sweep: achieved bandwidth of
// the adaptive runtime vs the plan-once baseline under mid-transfer link
// degradation and permanent failure.
func writeFaultsJSON(path string, points []exp.FaultPoint) error {
	doc := struct {
		Description string           `json:"description"`
		Host        string           `json:"host"`
		Date        string           `json:"date"`
		Points      []exp.FaultPoint `json:"points"`
	}{
		Description: "Fault adaptation (mpbench -exp faults): achieved bandwidth per " +
			"(cluster, scenario, factor, size, mode) cell. 'degrade' drops the direct " +
			"NVLink to the given capacity factor at half the fault-free predicted " +
			"time; 'failure' (factor 0) kills the staging link permanently, which the " +
			"static baseline, running with failover disabled, does not survive. " +
			"Adaptive = chunk-pool segmentation + fault notification + online " +
			"recalibration + failover (see DESIGN.md).",
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

// writeGraphsJSON records the compiled-transfer-graph comparison: achieved
// bandwidth interpreted vs compiled per (cluster, window, size) cell, and
// the host-side launch-cost ladder demonstrating the O(1) warm replay.
func writeGraphsJSON(path string, points []exp.GraphPoint, launch []exp.GraphLaunchPoint) error {
	doc := struct {
		Description string                 `json:"description"`
		Host        string                 `json:"host"`
		Date        string                 `json:"date"`
		Points      []exp.GraphPoint       `json:"points"`
		Launch      []exp.GraphLaunchPoint `json:"launch_scaling"`
	}{
		Description: "Compiled transfer graphs (mpbench -exp graphs): the OMB " +
			"unidirectional sweep per (cluster, window) cell with the eager " +
			"(interpreted) engine vs UCX_MP_GRAPHS=y compiled-graph replay. The " +
			"compiled path charges one launch overhead per transfer instead of " +
			"per-chunk ε and per-path α, so speedup_pct concentrates at small and " +
			"medium sizes. launch_scaling shows wall-clock issuing cost per warm " +
			"replay: compiled_launch_ns stays flat as the chunk count (and graph " +
			"node count) grows — the O(1) launch — while interpreted_ns_per_op " +
			"grows with it. Wall-clock fields are host-dependent; bandwidth cells " +
			"are deterministic simulation.",
		Host:   fmt.Sprintf("GOMAXPROCS=%d, %s %s/%s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Date:   time.Now().Format("2006-01-02"),
		Points: points,
		Launch: launch,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeServeJSON records the plan-serving load test: plans/sec and request
// latency percentiles per wire series, plus the batch-vs-single speedup.
func writeServeJSON(path string, points []exp.ServePoint) error {
	doc := struct {
		Description string           `json:"description"`
		Host        string           `json:"host"`
		Date        string           `json:"date"`
		BatchSize   int              `json:"batch_size"`
		Points      []exp.ServePoint `json:"points"`
	}{
		Description: "Plan serving (mpbench -exp serve): the mpserve daemon stack " +
			"in-process behind real loopback sockets, replaying a deterministic " +
			"mixed-size plan workload across two registered clusters. " +
			"'http_single' round-trips one POST /v1/plan per query, 'http_batch' " +
			"amortizes one POST /v1/batch over 1024 queries, 'tcp_batch' sends the " +
			"same batches over the length-prefixed TCP fast path. plans_per_sec " +
			"and the latency percentiles are wall clock and host-dependent; " +
			"speedup_vs_single is each batch series' plans_per_sec over " +
			"http_single's and must stay >= 5 at batch size 1024.",
		Host:      fmt.Sprintf("GOMAXPROCS=%d, %s %s/%s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		Date:      time.Now().Format("2006-01-02"),
		BatchSize: exp.ServeBatchSize,
		Points:    points,
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
