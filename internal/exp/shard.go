package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The shard experiment quantifies the sharded event engine against the
// fused single-network composition on two scenarios:
//
//   - fleet8: eight contending nodes. The fused baseline builds all eight
//     into ONE fluid network on one simulator; a flow start/finish there
//     re-rates only its own component but settles the whole fleet's flows
//     and links. The sharded run gives each node its own network on an
//     8-shard cluster, so an event settles one node only. That asymptotic
//     difference (O(node) vs O(fleet) settlement per event) is why the
//     speedup holds even on a single-core host; extra workers add
//     wall-clock parallelism on top where cores exist.
//   - single: one node. The same workload runs on the plain engine and on
//     clusters of 1, 2, and 8 shards (the node always on shard 0, the
//     rest empty), measuring pure epoch-machinery overhead, which must
//     stay flat in the shard count and within noise of the plain engine.
//
// Wall-clock fields are host-dependent and not byte-reproducible; the
// completion-time checksum is, and ShardBench enforces that it is
// identical across shard and worker counts of the sharded structure.

// ShardPoint is one (scenario, shards, workers) measurement.
type ShardPoint struct {
	Scenario     string  `json:"scenario"`
	Shards       int     `json:"shards"`
	Workers      int     `json:"workers"`
	Nodes        int     `json:"nodes"`
	FlowsPerNode int     `json:"flows_per_node"`
	WallNs       float64 `json:"wall_ns"`
	// BaselineNs is the fused-network (fleet8) or plain-engine (single)
	// wall time the run is compared against.
	BaselineNs float64 `json:"baseline_ns"`
	// Speedup is BaselineNs/WallNs for fleet8 rows (higher is better).
	Speedup float64 `json:"speedup,omitempty"`
	// OverheadPct is 100*(WallNs/BaselineNs - 1) for single rows.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	// Checksum is FNV-64a over the bit patterns of every completion time,
	// node-major; identical across shards/workers by construction.
	Checksum string `json:"checksum"`
	Epochs   int    `json:"epochs"`
}

// shardStart is one scripted flow on one node.
type shardStart struct {
	at    float64
	bytes float64
	src   int
	dst   int
}

// genNodeStarts scripts a contention-heavy workload for one node: flows
// between random GPU pairs with bursty start times, sized so that many
// overlap and every start/finish re-rates a well-populated network.
func genNodeStarts(sp *hw.Spec, seed int64, flows int) []shardStart {
	rng := rand.New(rand.NewSource(seed))
	starts := make([]shardStart, flows)
	at := 0.0
	for i := range starts {
		if i == 0 || rng.Float64() >= 0.3 {
			at += rng.Float64() * 50e-6
		}
		src := rng.Intn(sp.GPUs)
		dst := rng.Intn(sp.GPUs - 1)
		if dst >= src {
			dst++
		}
		starts[i] = shardStart{
			at:    at,
			bytes: (1 + rng.Float64()*15) * hw.MiB,
			src:   src,
			dst:   dst,
		}
	}
	return starts
}

// playNode schedules one node's scripted flows (direct route when the
// GPU pair has NVLink, host-staged PCIe route otherwise) and returns the
// completion-time slots.
func playNode(s *sim.Simulator, node *hw.Node, starts []shardStart) []float64 {
	done := make([]float64, len(starts))
	for i, st := range starts {
		i, st := i, st
		s.At(st.at, func() {
			var links []*fluid.Link
			if r, ok := node.GPUToGPU(st.src, st.dst); ok {
				links = r.Links
			} else {
				m := node.StagingNUMA(st.src, st.dst)
				up := node.GPUToHost(st.src, m)
				down := node.HostToGPU(m, st.dst)
				links = append(append(links, up.Links...), down.Links...)
			}
			f := node.Net.StartFlow(st.bytes, links...)
			f.Done().OnFire(func() { done[i] = s.Now() })
		})
	}
	return done
}

// shardChecksum hashes the bit patterns of all completion times,
// node-major, into an FNV-64a hex digest.
func shardChecksum(done [][]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, node := range done {
		for _, t := range node {
			bits := math.Float64bits(t)
			for b := 0; b < 8; b++ {
				buf[b] = byte(bits >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runFused builds nodes into one network on one simulator and runs the
// scripted workload, returning the completion times.
func runFused(sp *hw.Spec, starts [][]shardStart) ([][]float64, error) {
	s := sim.New()
	net := fluid.NewNetwork(s)
	done := make([][]float64, len(starts))
	for i := range starts {
		node, err := hw.BuildInto(net, sp, fmt.Sprintf("node%d/", i))
		if err != nil {
			return nil, err
		}
		done[i] = playNode(s, node, starts[i])
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return done, nil
}

// runShardedFleet builds one network per node across a cluster and runs
// the same workload, returning completion times and the epoch count.
func runShardedFleet(sp *hw.Spec, starts [][]shardStart, shards, workers int) ([][]float64, int, error) {
	c := sim.NewCluster(shards, workers)
	defer c.Close()
	specs := make([]*hw.Spec, len(starts))
	for i := range specs {
		specs[i] = sp
	}
	fleet, err := hw.BuildFleet(c, specs)
	if err != nil {
		return nil, 0, err
	}
	epochs := 0
	c.OnEpoch(func(sim.Epoch) { epochs++ })
	done := make([][]float64, len(starts))
	for i := range starts {
		done[i] = playNode(fleet.Sim(i), fleet.Node(i), starts[i])
	}
	if err := c.Run(); err != nil {
		return nil, 0, err
	}
	return done, epochs, nil
}

// timeRuns wall-clocks fn over reps repetitions (after one warmup) and
// returns the per-repetition nanoseconds.
func timeRuns(reps int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps), nil
}

// ShardBench measures the fleet8 speedup and the single-node overhead
// ladder. It fails (returns an error) if the sharded completion-time
// checksum varies across shard or worker counts — determinism is part of
// the benchmark's contract, not just the test suite's.
func ShardBench(opts Options) (*Figure, []ShardPoint, error) {
	sp, err := specFor("beluga")
	if err != nil {
		return nil, nil, err
	}
	const nodes = 8
	flows := 150
	reps := opts.Iters
	if reps < 1 {
		reps = 1
	}
	if opts.Iters <= 1 { // quick mode
		flows = 60
	}
	fleetShards := nodes
	if opts.Shards > 0 {
		fleetShards = opts.Shards
	}

	starts := make([][]shardStart, nodes)
	for i := range starts {
		starts[i] = genNodeStarts(sp, 1000+int64(i), flows)
	}

	fig := &Figure{
		ID:      "shard",
		Caption: "Sharded event engine: fleet speedup vs fused baseline, single-component overhead ladder",
	}
	var points []ShardPoint

	// fleet8: fused baseline, then the sharded runs over a worker ladder.
	var fusedDone [][]float64
	fusedNs, err := timeRuns(reps, func() error {
		d, err := runFused(sp, starts)
		fusedDone = d
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("exp: shard fused baseline: %w", err)
	}
	_ = fusedDone // wall-clock reference only; floats differ from sharded by composition
	fleetPanel := Panel{
		Title:  fmt.Sprintf("fleet8 on beluga ×%d nodes, %d flows/node (fused baseline %.0f ns)", nodes, flows, fusedNs),
		YLabel: "speedup vs fused",
	}
	var speedups Series
	speedups.Name = "speedup"
	checksum := ""
	for _, workers := range []int{1, 2, 4, 8} {
		var done [][]float64
		epochs := 0
		ns, err := timeRuns(reps, func() error {
			d, e, err := runShardedFleet(sp, starts, fleetShards, workers)
			done, epochs = d, e
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("exp: shard fleet8 workers=%d: %w", workers, err)
		}
		sum := shardChecksum(done)
		if checksum == "" {
			checksum = sum
		} else if sum != checksum {
			return nil, nil, fmt.Errorf("exp: shard fleet8 workers=%d: checksum %s != %s (determinism violated)", workers, sum, checksum)
		}
		sp := ShardPoint{
			Scenario: "fleet8", Shards: fleetShards, Workers: workers,
			Nodes: nodes, FlowsPerNode: flows,
			WallNs: ns, BaselineNs: fusedNs, Speedup: fusedNs / ns,
			Checksum: sum, Epochs: epochs,
		}
		points = append(points, sp)
		speedups.Points = append(speedups.Points, Point{Bytes: float64(workers), Value: sp.Speedup})
	}
	fleetPanel.Series = []Series{speedups}
	fig.Panels = append(fig.Panels, fleetPanel)

	// single: plain engine vs shard-count ladder with one real component.
	// The four configurations are measured round-robin within each
	// repetition: these runs are ~1 ms each, so measuring each config in
	// its own block would fold heap-growth and GC drift into whichever
	// config ran first and report phantom (even negative) overhead.
	single := starts[:1]
	runPlain := func() ([][]float64, error) {
		s := sim.New()
		node, err := hw.Build(s, sp)
		if err != nil {
			return nil, err
		}
		done := [][]float64{playNode(s, node, single[0])}
		return done, s.Run()
	}
	singleShards := []int{1, 2, 8}
	repsSingle := 6 * reps
	plainNs := 0.0
	ladderNs := make([]float64, len(singleShards))
	ladderEpochs := make([]int, len(singleShards))
	singleSum := ""
	if _, err := runPlain(); err != nil { // warmup
		return nil, nil, fmt.Errorf("exp: shard single baseline: %w", err)
	}
	for r := 0; r < repsSingle; r++ {
		t0 := time.Now()
		done, err := runPlain()
		if err != nil {
			return nil, nil, fmt.Errorf("exp: shard single baseline: %w", err)
		}
		plainNs += float64(time.Since(t0).Nanoseconds())
		plainSum := shardChecksum(done)
		for si, shards := range singleShards {
			t0 := time.Now()
			d, e, err := runShardedFleet(sp, single, shards, 1)
			if err != nil {
				return nil, nil, fmt.Errorf("exp: shard single shards=%d: %w", shards, err)
			}
			ladderNs[si] += float64(time.Since(t0).Nanoseconds())
			ladderEpochs[si] = e
			sum := shardChecksum(d)
			if singleSum == "" {
				singleSum = sum
			} else if sum != singleSum {
				return nil, nil, fmt.Errorf("exp: shard single shards=%d: checksum %s != %s (determinism violated)", shards, sum, singleSum)
			}
			// One component is one self-contained program: the clustered
			// run must match the plain engine bit for bit, not just itself.
			if sum != plainSum {
				return nil, nil, fmt.Errorf("exp: shard single shards=%d: checksum %s != plain engine %s", shards, sum, plainSum)
			}
		}
	}
	plainNs /= float64(repsSingle)
	singlePanel := Panel{
		Title:  fmt.Sprintf("single-component overhead on beluga, %d flows (plain engine %.0f ns)", flows, plainNs),
		YLabel: "overhead %",
	}
	var overheads Series
	overheads.Name = "overhead_%"
	for si, shards := range singleShards {
		ns := ladderNs[si] / float64(repsSingle)
		sp := ShardPoint{
			Scenario: "single", Shards: shards, Workers: 1,
			Nodes: 1, FlowsPerNode: flows,
			WallNs: ns, BaselineNs: plainNs,
			OverheadPct: 100 * (ns/plainNs - 1),
			Checksum:    singleSum, Epochs: ladderEpochs[si],
		}
		points = append(points, sp)
		overheads.Points = append(overheads.Points, Point{Bytes: float64(shards), Value: sp.OverheadPct})
	}
	singlePanel.Series = []Series{overheads}
	fig.Panels = append(fig.Panels, singlePanel)
	return fig, points, nil
}

// ShardTraceInfo summarizes one ShardTrace run.
type ShardTraceInfo struct {
	Spans    int
	Instants int
	Epochs   int
}

// ShardTrace runs a small two-node cluster with cross-shard pulses and
// writes a Perfetto trace with one span track per shard (each epoch's
// window per shard) and an instant track for the epoch barriers. The
// epoch coordinator records on behalf of the shards between epochs using
// a ManualClock, so the trace is deterministic: two calls produce
// byte-identical output.
func ShardTrace(w io.Writer) (*ShardTraceInfo, error) {
	const lookahead = 10e-6
	c := sim.NewCluster(2, 2)
	defer c.Close()
	c.Connect(0, 1, lookahead)
	c.Connect(1, 0, lookahead)

	sp, err := specFor("beluga")
	if err != nil {
		return nil, err
	}
	fleet, err := hw.BuildFleet(c, []*hw.Spec{sp, sp})
	if err != nil {
		return nil, err
	}

	clk := obs.NewManualClock()
	tr := obs.NewTracer(clk.Read)
	epochs := 0
	c.OnEpoch(func(ep sim.Epoch) {
		epochs++
		for i := 0; i < len(ep.ShardNow); i++ {
			clk.Set(ep.Start)
			id := tr.Begin(obs.ShardTrack(i), "epoch", fmt.Sprintf("epoch %d", ep.Index),
				obs.NoSpan, obs.KVi("events", int64(ep.ShardEvents[i])))
			end := ep.ShardNow[i]
			if end < ep.Start {
				end = ep.Start
			}
			clk.Set(end)
			tr.EndWith(id, obs.KVf("shard_now", ep.ShardNow[i]))
		}
		horizon := ep.Horizon
		if math.IsInf(horizon, 1) {
			horizon = ep.Start
		}
		clk.Set(horizon)
		tr.Instant(obs.EpochTrack, "epoch", "barrier",
			obs.KVi("epoch", int64(ep.Index)), obs.KVi("delivered", int64(ep.Delivered)))
	})

	// Workload: each node runs local flows and pings the other shard,
	// forcing several epochs.
	done := make([][]float64, 2)
	for i := 0; i < 2; i++ {
		done[i] = playNode(fleet.Sim(i), fleet.Node(i), genNodeStarts(sp, int64(7+i), 20))
	}
	var pulse func(from, hops int)
	pulse = func(from, hops int) {
		if hops <= 0 {
			return
		}
		src := c.Shard(from)
		dst := c.Shard(1 - from)
		src.Post(dst, lookahead, func() { pulse(1-from, hops-1) })
	}
	c.Shard(0).Schedule(0, func() { pulse(0, 6) })

	if err := c.Run(); err != nil {
		return nil, err
	}
	if err := tr.WritePerfetto(w); err != nil {
		return nil, err
	}
	return &ShardTraceInfo{Spans: tr.Len(), Instants: tr.InstantCount(), Epochs: epochs}, nil
}
