package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// The transfers workload drives a seeded "rack": four nodes realised with
// hw.BuildInto in one fluid.Network on one sim.Simulator, each with its own
// cuda.Runtime, ucx.Context and mpi.World. Every step gives every node one
// seeded action (an Alltoall, an Allreduce, or a burst of concurrent Puts),
// then drains the simulator. One op is one step.

// Action kinds.
const (
	actAlltoall = iota
	actAllreduce
	actPuts
)

// Fixed size menus: repeated sizes make plan-cache hits the common case,
// as in a training job that repeats its buckets.
var (
	collMenu = []float64{1 * hw.MiB, 4 * hw.MiB, 16 * hw.MiB}
	putMenu  = []float64{2 * hw.MiB, 8 * hw.MiB, 32 * hw.MiB}
)

// rackNodeSpec describes one node of the rack.
type rackNodeSpec struct {
	name   string
	spec   func() *hw.Spec
	config func(*ucx.Config)
	faults bool // under the seeded flap/degrade plan
	shift  int  // offsets the node's combination in every composition
}

// rackSpecs is the rack: the paper's default eager NVSwitch node, the same
// node on compiled graphs, Narval with segmented re-planning, failover and
// recalibration under faults, and Beluga with load-aware planning.
var rackSpecs = []rackNodeSpec{
	{name: "nvswitch", spec: hw.NVSwitchNode, config: func(*ucx.Config) {}},
	{name: "nvswitch-graphs", spec: hw.NVSwitchNode, shift: 3, config: func(c *ucx.Config) { c.GraphsEnable = true }},
	{name: "narval-faults", spec: hw.Narval, faults: true, shift: 6, config: func(c *ucx.Config) {
		c.AdaptSegments = 4
		c.AdaptMinBytes = 4 * hw.MiB
		c.Recalibrate = true
	}},
	{name: "beluga-loadaware", spec: hw.Beluga, shift: 1, config: func(c *ucx.Config) { c.LoadAware = true }},
}

// faultNode indexes the node under faults in rackSpecs.
const faultNode = 2

// action is one node's work in one step.
type action struct {
	Kind  int
	Bytes float64  // per rank for collectives, per Put for bursts
	Pairs [][2]int // Put burst (src, dst) pairs
	Fault *hw.FaultPlan
}

// roundSteps is the length of a round. A step's composition j (0..8)
// gives each node the (kind, size) combination (j + shift) mod 9, and
// every round runs each composition once, in a seeded order. So every
// node runs every combination once per round, the same actions always
// meet, and seeds change only the order of steps, the pairs a burst uses
// and where faults land: runs with different seeds measure the same mix,
// down to which steps are the heaviest.
const roundSteps = 3 * 3

// stepPlan generates every node's action for one step; any step can be
// generated without the steps before it. gpus lists each node's GPU
// count; now is the simulated time the step starts, which anchors the
// fault plan.
func stepPlan(seed uint64, step int, gpus []int, now float64) []action {
	round, slot := step/roundSteps, step%roundSteps
	comp := rand.New(rand.NewPCG(seed, uint64(round))).Perm(roundSteps)[slot]
	r := rand.New(rand.NewPCG(seed, uint64(step)^0x5bd1e9955bd1e995))
	acts := make([]action, len(gpus))
	for n, g := range gpus {
		combo := (comp + rackSpecs[n].shift) % roundSteps
		a := action{Kind: combo / 3}
		switch a.Kind {
		case actAlltoall, actAllreduce:
			a.Bytes = collMenu[combo%3]
		case actPuts:
			a.Bytes = putMenu[combo%3]
			for k := 2 + r.IntN(3); k > 0; k-- {
				src := r.IntN(g)
				dst := (src + 1 + r.IntN(g-1)) % g
				a.Pairs = append(a.Pairs, [2]int{src, dst})
			}
		}
		if rackSpecs[n].faults {
			a.Fault = faultPlan(r, a, g, now)
		}
		acts[n] = a
	}
	return acts
}

// faultPlan draws the faulty node's fault for one step: mostly a flap of
// one NVLink or PCIe link, sometimes a capacity degradation, placed inside
// the step's expected busy time so it lands on live transfers. Every fault
// ends within the step, so the simulator drains to a healthy node.
func faultPlan(r *rand.Rand, a action, gpus int, now float64) *hw.FaultPlan {
	if r.IntN(4) == 0 {
		return nil
	}
	var links []hw.LinkRef
	for s := 0; s < gpus; s++ {
		for d := 0; d < gpus; d++ {
			if s != d {
				links = append(links, hw.NVLinkRef(s, d))
			}
		}
		links = append(links, hw.PCIeUpRef(s), hw.PCIeDownRef(s))
	}
	link := links[r.IntN(len(links))]
	busy := requestedBytes(a, gpus) / (200 * hw.GBps)
	at := now + r.Float64()*busy
	dur := (0.1 + 0.4*r.Float64()) * busy
	fp := &hw.FaultPlan{}
	if r.IntN(3) == 0 {
		fp.Degrade(at, link, 0.25+0.5*r.Float64()).Restore(at+dur, link)
	} else {
		fp.Flap(at, link, dur)
	}
	return fp
}

// requestedBytes is the payload an action asks to move: every rank's
// block to every other rank for an Alltoall, every rank's vector for an
// Allreduce, every Put's size for a burst.
func requestedBytes(a action, gpus int) float64 {
	switch a.Kind {
	case actAlltoall:
		return a.Bytes * float64(gpus*(gpus-1))
	case actAllreduce:
		return a.Bytes * float64(gpus)
	default:
		return a.Bytes * float64(len(a.Pairs))
	}
}

type rackNode struct {
	spec  rackNodeSpec
	node  *hw.Node
	ctx   *ucx.Context
	world *mpi.World
	eps   map[[2]int]*ucx.Endpoint
}

type rack struct {
	seed  uint64
	sim   *sim.Simulator
	net   *fluid.Network
	nodes []*rackNode
	gpus  []int
}

func buildRack(seed uint64) (*rack, error) {
	s := sim.New()
	r := &rack{seed: seed, sim: s, net: fluid.NewNetwork(s)}
	for i, ns := range rackSpecs {
		node, err := hw.BuildInto(r.net, ns.spec(), fmt.Sprintf("node%d/", i))
		if err != nil {
			return nil, err
		}
		cfg := ucx.DefaultConfig()
		ns.config(&cfg)
		ctx, err := ucx.NewContext(cuda.NewRuntime(node), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ns.name, err)
		}
		world, err := mpi.NewWorld(ctx, node.Spec.GPUs, mpi.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ns.name, err)
		}
		r.nodes = append(r.nodes, &rackNode{spec: ns, node: node, ctx: ctx, world: world, eps: map[[2]int]*ucx.Endpoint{}})
		r.gpus = append(r.gpus, node.Spec.GPUs)
	}
	return r, nil
}

func (n *rackNode) endpoint(pair [2]int) (*ucx.Endpoint, error) {
	if ep := n.eps[pair]; ep != nil {
		return ep, nil
	}
	ep, err := n.ctx.NewWorker(pair[0]).Connect(pair[1])
	if err != nil {
		return nil, err
	}
	n.eps[pair] = ep
	return ep, nil
}

// stepResult is what one step produced.
type stepResult struct {
	failed    bool
	requested float64   // bytes asked for
	simTime   float64   // simulated seconds until the last operation completed
	done      []float64 // completion times, in issue order
	putErrs   []float64 // |achieved/predicted − 1| per multi-path Put
}

// step runs measured step idx.
func (r *rack) step(idx int, tr *spans) (stepResult, error) {
	return r.exec(idx, stepPlan(r.seed, idx, r.gpus, r.sim.Now()), tr)
}

// exec issues every node's action, drains the simulator, and checks that
// every Put and collective completed without error.
func (r *rack) exec(idx int, acts []action, tr *spans) (stepResult, error) {
	var res stepResult
	t0 := r.sim.Now()
	root := tr.begin("step", -1)
	defer tr.end(root)

	type pending struct {
		sig      *sim.Signal
		firstErr func() error
		req      *ucx.Request
	}
	var waits []pending
	for i, a := range acts {
		n := r.nodes[i]
		res.requested += requestedBytes(a, r.gpus[i])
		if a.Fault != nil {
			if _, err := a.Fault.Arm(n.node); err != nil {
				return res, fmt.Errorf("%s: arm faults: %w", n.spec.name, err)
			}
		}
		switch a.Kind {
		case actPuts:
			for _, pair := range a.Pairs {
				ep, err := n.endpoint(pair)
				if err != nil {
					return res, err
				}
				sp := tr.begin("Endpoint.Put", root)
				req, err := ep.Put(a.Bytes)
				tr.end(sp)
				if err != nil {
					fmt.Printf("CHECK FAILED: step %d %s Put %v: %v\n", idx, n.spec.name, pair, err)
					res.failed = true
					continue
				}
				waits = append(waits, pending{sig: req.Done, req: req})
			}
		default:
			bytes, kind := a.Bytes, a.Kind
			sp := tr.begin("World.Spawn", root)
			sig, firstErr := n.world.Spawn(func(p *sim.Proc, rk *mpi.Rank) error {
				if kind == actAlltoall {
					return rk.Alltoall(p, bytes)
				}
				return rk.Allreduce(p, bytes)
			})
			tr.end(sp)
			waits = append(waits, pending{sig: sig, firstErr: firstErr})
		}
	}
	sp := tr.begin("Simulator.Run", root)
	err := r.sim.Run()
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("step %d: simulator: %w", idx, err)
	}
	for _, w := range waits {
		var werr error
		switch {
		case !w.sig.Fired():
			werr = fmt.Errorf("did not complete")
		case w.sig.Err() != nil:
			werr = w.sig.Err()
		case w.firstErr != nil:
			werr = w.firstErr()
		}
		if werr != nil {
			fmt.Printf("CHECK FAILED: step %d: %v\n", idx, werr)
			res.failed = true
			continue
		}
		res.done = append(res.done, w.sig.FiredAt())
		// The step lasts until its last operation completes; a fault's
		// restore firing later on an idle link does not count.
		res.simTime = math.Max(res.simTime, w.sig.FiredAt()-t0)
		if w.req != nil && w.req.Plan != nil && w.req.Elapsed() > 0 {
			achieved := w.req.Bytes / w.req.Elapsed()
			res.putErrs = append(res.putErrs, math.Abs(achieved/w.req.Plan.PredictedBandwidth-1))
		}
	}
	return res, nil
}

// linkBytes sums the bytes every link of the rack has carried.
func (r *rack) linkBytes() float64 {
	var b float64
	for _, l := range r.net.Links() {
		b += l.BytesCarried()
	}
	return b
}

// stepWindow is the measurement window: 40 rounds, so each window holds 40
// steps of every composition and its tail (10 steps beyond, p97.2) falls
// among the heaviest composition's steps.
const stepWindow = 40 * roundSteps

// goldenSteps is the fixed prefix of measured steps over which the
// deterministic outputs are taken: the checksum, link bytes, sim_gbps and
// pred_err_pct. Every run completes it whatever the host's speed.
const goldenSteps = 64 * roundSteps

// golden is the checked-in record of the default seed's deterministic
// outputs.
type golden struct {
	Seed        uint64  `json:"seed"`
	Steps       int     `json:"steps"`
	Checksum    string  `json:"checksum"`
	LinkGBPerOp float64 `json:"link_gb_per_op"`
	SimGBps     float64 `json:"sim_gbps"`
	PredErrPct  float64 `json:"pred_err_pct"`
	Retries     int64   `json:"retries"`
	Failovers   int64   `json:"failovers"`
	Refits      int64   `json:"refits"`
}

const goldenFile = "testdata/transfers_golden.json"

// transfersPhase accumulates a run of steps.
type transfersPhase struct {
	steps, failed int64
	cpu           float64
	windows       []timedWindow // whole windows of stepWindow steps
	events        uint64
	linkBytes     float64
}

// window accumulates the golden prefix.
type window struct {
	steps     int
	hash      uint64
	requested float64
	simTime   float64
	errSum    float64
	errN      int
	linkStart float64      // link bytes carried before the window
	linkBytes float64      // link bytes carried during the window
	end       nodeCounters // counters when the window filled
}

func newWindow(r *rack) *window { return &window{linkStart: r.linkBytes()} }

func (w *window) add(res stepResult) {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(w.hash)
	for _, t := range res.done {
		put(math.Float64bits(t))
	}
	w.hash = h.Sum64()
	w.steps++
	w.requested += res.requested
	w.simTime += res.simTime
	for _, e := range res.putErrs {
		w.errSum += e
		w.errN++
	}
}

// record returns the window's deterministic outputs; call it once the
// window is full.
func (w *window) record(r *rack) golden {
	g := golden{
		Seed:        r.seed,
		Steps:       w.steps,
		Checksum:    fmt.Sprintf("%016x", w.hash),
		LinkGBPerOp: w.linkBytes / 1e9 / float64(w.steps),
		SimGBps:     w.requested / w.simTime / 1e9,
		Retries:     w.end.retries,
		Failovers:   w.end.failovers,
		Refits:      w.end.refits,
	}
	if w.errN > 0 {
		g.PredErrPct = 100 * w.errSum / float64(w.errN)
	}
	return g
}

// run executes steps from next on, filling the golden window on the way,
// until at least minSteps ran and the clean windows of stepWindow steps
// cover the budget, or stretch times the budget has passed.
func (r *rack) run(next *int, budget float64, minSteps int, w *window, tr *spans) (transfersPhase, error) {
	var ph transfersPhase
	ev0, lb0 := r.sim.Executed(), r.linkBytes()
	cpu0 := selfCPU()
	clock := windowClock{cpu: selfCPU}
	clock.open()
	start := time.Now()
	var secs []float64
	var clean float64 // seconds
	for ph.steps < int64(minSteps) || (clean < budget && time.Since(start).Seconds() < stretch*budget) {
		t := time.Now()
		res, err := r.step(*next, tr)
		if err != nil {
			return ph, err
		}
		secs = append(secs, time.Since(t).Seconds())
		ph.steps++
		*next++
		if res.failed {
			ph.failed++
		}
		if w != nil && w.steps < goldenSteps {
			w.add(res)
			if w.steps == goldenSteps {
				w.linkBytes = r.linkBytes() - w.linkStart
				w.end = r.counters()
			}
		}
		if len(secs) == stepWindow {
			tw := clock.close(secs, stepWindow)
			ph.windows = append(ph.windows, tw)
			if tw.clean() {
				clean += tw.wall
			}
			secs = nil
		}
	}
	ph.cpu = selfCPU() - cpu0
	ph.events = r.sim.Executed() - ev0
	ph.linkBytes = r.linkBytes() - lb0
	return ph, nil
}

// rackSetups is how many set-ups a run times; the last one is measured.
// Over eight runs the median of 21 ranged 1.9-3.4 ms, that of 101
// 2.4-3.0 ms.
const rackSetups = 101

// setupRack builds the rack and runs the warm-up step: the same
// fault-free Allreduce on every node whatever the seed, so set-up costs
// the same for every seed.
func setupRack(seed uint64) (*rack, error) {
	r, err := buildRack(seed)
	if err != nil {
		return nil, err
	}
	warm := make([]action, len(r.nodes))
	for i := range warm {
		warm[i] = action{Kind: actAllreduce, Bytes: collMenu[1]}
	}
	res, err := r.exec(-1, warm, nil)
	if err != nil {
		return nil, err
	}
	if res.failed {
		return nil, fmt.Errorf("warm-up step failed")
	}
	return r, nil
}

func loadGolden(root string) (*golden, error) {
	b, err := os.ReadFile(filepath.Join(root, "mpperf", goldenFile))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return &g, nil
}

// checkWindow compares the golden prefix with the checked-in record (for
// the default seed) and checks that the fault plan really fired.
func checkWindow(rep *report, cfg config, got golden) error {
	rep.notef("golden window: %d steps checksum=%s link_gb_per_op=%.9g sim_gbps=%.9g pred_err_pct=%.9g retries=%d failovers=%d refits=%d",
		got.Steps, got.Checksum, got.LinkGBPerOp, got.SimGBps, got.PredErrPct, got.Retries, got.Failovers, got.Refits)
	if got.Retries == 0 || got.Failovers == 0 {
		rep.fail("faulty node shows %d retries and %d failovers in the golden window; the fault plan did not fire", got.Retries, got.Failovers)
	}
	if cfg.seed != defaultSeed {
		return nil
	}
	want, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	if got != *want {
		rep.fail("golden window differs from %s: got %+v, want %+v", goldenFile, got, *want)
	}
	return nil
}

func runTransfers(cfg config, rep *report) error {
	r, setup, err := medianSetup(rackSetups, func() (*rack, error) { return setupRack(cfg.seed) }, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rep.set("setup_s", setup, "s")
	rep.notef("set-up (build rack, warm-up step): median of %d = %.6f s", rackSetups, setup)

	w := newWindow(r)
	next := 0
	if cfg.trace {
		return traceTransfers(cfg, rep, r, w, &next)
	}
	ph, err := r.run(&next, cfg.seconds, goldenSteps, w, nil)
	if err != nil {
		return err
	}
	rep.attempted += ph.steps
	rep.failed += ph.failed
	g := w.record(r)
	if err := checkWindow(rep, cfg, g); err != nil {
		return err
	}
	if err := setWindowed(rep, "step", ph.windows, cfg.seconds); err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("pred_err_pct", g.PredErrPct, "%")
	rep.set("sim_gbps", g.SimGBps, "GB/s")
	rep.notef("%d steps, %d failed, %.3f CPU-s, %d sim events", ph.steps, ph.failed, ph.cpu, ph.events)
	return nil
}

// nodeCounters is the per-layer counter state of the rack at one instant.
type nodeCounters struct {
	hits, misses, evictions, merges int64
	refits, retries, failovers      int64
	gHits, gMisses, gReplays, gComp int64
}

func (r *rack) counters() nodeCounters {
	var c nodeCounters
	for i, n := range r.nodes {
		st := n.ctx.StatsSnapshot()
		c.hits += st.PlanCache.Hits
		c.misses += st.PlanCache.Misses
		c.evictions += st.PlanCache.Evictions
		c.merges += st.PlanCache.InflightMerges
		if st.GraphCache != nil {
			c.gHits += st.GraphCache.Hits
			c.gMisses += st.GraphCache.Misses
			c.gReplays += st.GraphCache.Replays
			c.gComp += st.GraphCache.Compiles
		}
		if i == faultNode {
			c.retries, c.failovers = st.Retries, st.Failovers
			if st.Observer != nil {
				c.refits = st.Observer.Refits
			}
		}
	}
	return c
}

// traceTransfers runs a traced half of the budget, under the CPU profiler
// with spans and counters, between two untraced quarters; the untraced
// quarters give the tracing overhead and the CPU cost per event.
func traceTransfers(cfg config, rep *report, r *rack, w *window, next *int) error {
	zeroPerLayer(rep)
	base, err := r.run(next, cfg.seconds/4, goldenSteps, w, nil)
	if err != nil {
		return err
	}
	tr := newSpans()
	c0, rt0 := r.counters(), readRuntime()
	var ph transfersPhase
	a, err := cpuProfile(func() error {
		var err error
		ph, err = r.run(next, cfg.seconds/2, 1, nil, tr)
		return err
	})
	if err != nil {
		return err
	}
	c1, rt1 := r.counters(), readRuntime()
	after, err := r.run(next, cfg.seconds/4, 1, nil, nil)
	if err != nil {
		return err
	}
	base.steps += after.steps
	base.failed += after.failed
	base.cpu += after.cpu
	base.events += after.events
	rep.attempted += base.steps + ph.steps
	rep.failed += base.failed + ph.failed
	if err := checkWindow(rep, cfg, w.record(r)); err != nil {
		return err
	}

	stats := summarize(tr)
	printSpans(rep, stats)
	setSelfTimes(rep, a, ph.steps)
	setRuntime(rep, rt0, rt1, ph.steps)
	ops := float64(ph.steps)
	rep.set("sim.events_per_op", float64(ph.events)/ops, "count")
	rep.set("sim.cpu_ns_per_event", base.cpu*1e9/float64(base.events), "ns")
	rep.set("fluid.link_gb_per_op", ph.linkBytes/1e9/ops, "GB")
	hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
	if hits+misses > 0 {
		rep.set("core.plan_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	rep.set("core.plan_misses_per_op", float64(misses)/ops, "count")
	rep.set("core.plan_evictions", float64(c1.evictions-c0.evictions), "count")
	rep.set("core.inflight_merges", float64(c1.merges-c0.merges), "count")
	rep.set("core.refits", float64(c1.refits-c0.refits), "count")
	if gh, gm := c1.gHits-c0.gHits, c1.gMisses-c0.gMisses; gh+gm > 0 {
		rep.set("cuda.graph_hit_ratio", float64(gh)/float64(gh+gm), "ratio")
	}
	rep.set("cuda.graph_replays_per_op", float64(c1.gReplays-c0.gReplays)/ops, "count")
	rep.set("cuda.graph_compiles", float64(c1.gComp-c0.gComp), "count")
	rep.set("ucx.retries", float64(c1.retries-c0.retries), "count")
	rep.set("ucx.failovers", float64(c1.failovers-c0.failovers), "count")
	if st := stats["Endpoint.Put"]; st != nil {
		rep.set("ucx.put_issue_us", float64(st.p50)/1e3, "us")
	}
	rep.notef("traced phase: %d steps, %d sim events, plan cache %d hits / %d misses", ph.steps, ph.events, hits, misses)
	setOverhead(rep, float64(base.steps)/base.cpu, float64(ph.steps)/ph.cpu)
	return nil
}
