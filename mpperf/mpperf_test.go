package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	v1 "repro/internal/serve/v1"
)

var update = flag.Bool("update", false, "rewrite the transfers golden from the current code")

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(tailBeyond)); ok {
		t.Fatalf("tail of %d samples reported; need more than %d", tailBeyond, tailBeyond)
	}
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{11, 1, 100.0 / 11},
		{51, 41, 100 * 41.0 / 51}, // three figs regenerations: p80.4
		{1000, 990, 99},
	} {
		v, pc, ok := tail(seq(tc.n))
		if !ok || v != tc.value || pc != tc.pc {
			t.Errorf("tail(n=%d) = %v, p%v, %v; want %v, p%v", tc.n, v, pc, ok, tc.value, tc.pc)
		}
		xs := seq(tc.n)
		tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPickWindows(t *testing.T) {
	win := func(wall, steal float64) timedWindow { return timedWindow{wall: wall, steal: steal} }
	steals := func(ws []timedWindow) []float64 {
		var out []float64
		for _, w := range ws {
			out = append(out, w.steal)
		}
		return out
	}
	ws := []timedWindow{win(1, 0.30), win(1, 0), win(1, 0.10), win(1, stealLimit), win(1, 0.05)}
	for _, tc := range []struct {
		budget float64
		want   []float64
	}{
		{1, []float64{0, stealLimit}},                   // the clean ones, even beyond the budget
		{3, []float64{0, stealLimit, 0.05}},             // topped up with the least stolen
		{9, []float64{0, stealLimit, 0.05, 0.10, 0.30}}, // every window when none suffice
	} {
		used, clean := pickWindows(ws, wallAtLeast(tc.budget))
		if clean != 2 || !reflect.DeepEqual(steals(used), tc.want) {
			t.Errorf("budget %v: picked steals %v (%d clean), want %v (2 clean)", tc.budget, steals(used), clean, tc.want)
		}
	}
	three := func(u []timedWindow) bool { return len(u) >= 3 }
	if used, _ := pickWindows(ws, three); !reflect.DeepEqual(steals(used), []float64{0, stealLimit, 0.05}) {
		t.Errorf("three windows: picked steals %v", steals(used))
	}

	// setWindowed: p50 over every used sample, tail the median of the
	// windows' tails, ops per CPU-second over the used windows.
	seqFrom := func(base float64) []float64 {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = (base + float64(20-i)) / 1e3 // seconds, reversed
		}
		return xs
	}
	rep := newReport()
	err := setWindowed(rep, "op", []timedWindow{
		{secs: seqFrom(20), ops: 10, cpu: 1, wall: 1},
		{secs: seqFrom(0), ops: 10, cpu: 1, wall: 1},
		{secs: seqFrom(1000), ops: 10, cpu: 1, wall: 1, steal: 0.5}, // left out
		{secs: seqFrom(10), ops: 10, cpu: 2, wall: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"tail_ms": 20, "p50_ms": 20.5, "ops_per_cpu_s": 7.5} {
		if got := rep.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Simulator).runLimit":               "sim",
		"container/heap.down":                                    "sim",
		"repro/internal/fluid.(*Network).maxMinRates":            "fluid",
		"repro/internal/core.(*Model).PlanTransfer.func1":        "core",
		"repro/internal/serve/v1.(*ErrorBody).Error":             "serve",
		"repro/internal/par.(*Flight[go.shape.struct {}]).Do":    "other",
		"repro/internal/tuner.ExhaustiveSearch":                  "tuner",
		"encoding/json.(*decodeState).object":                    "json",
		"net/http.(*conn).serve":                                 "http",
		"net.(*conn).Read":                                       "http",
		"internal/poll.(*FD).Read":                               "other",
		"runtime.mallocgc":                                       "other",
		"repro/internal/exp.Fig5":                                "other",
		"repro/internal/simulated.Fake":                          "other",
		"gopkg.in/x.v2/internal/sim.Thing":                       "other",
		"repro/internal/cuda.(*Replay).runNode":                  "cuda",
		"repro/internal/ucx.(*mpRun).begin.func2":                "ucx",
		"repro/internal/mpi.(*Rank).Alltoall":                    "mpi",
		"repro/internal/pipeline.(*Engine).Run":                  "pipeline",
		"repro/internal/hw.Path.String":                          "hw",
		"repro/internal/omb.BW":                                  "omb",
		"net/textproto.(*Reader).ReadMIMEHeader":                 "http",
		"repro/mpperf.spin":                                      "other",
		"repro/internal/core.solve[go.shape.float64,main.x.y/z]": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

// spin burns CPU in this package so the profile below has samples.
func spin(d time.Duration) {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	spinSink = x
}

func TestProfileAttributionAddsUp(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile of a 300 ms spin holds no samples")
	}
	var total time.Duration
	spun := false
	for _, s := range samples {
		total += time.Duration(s.ns)
		spun = spun || strings.HasSuffix(s.fn, ".spin")
	}
	if !spun {
		t.Error("no sample attributed to the spinning function")
	}
	a := attribute(samples)
	var sum time.Duration
	for _, d := range a.byLayer {
		sum += d
	}
	if sum != a.total || a.total != total || total == 0 {
		t.Fatalf("layers+other = %v, attribution total %v, profile total %v", sum, a.total, total)
	}

	rep := newReport()
	setSelfTimes(rep, a, 1)
	if !rep.checksOK {
		t.Error("setSelfTimes reported an attribution mismatch")
	}
	var perOp float64
	for name, m := range rep.metrics {
		if strings.HasSuffix(name, ".self_ms_per_op") {
			perOp += m.Value
		}
	}
	if got, want := perOp, float64(a.total)/1e6; fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", want) {
		t.Errorf("per-layer self times sum to %v ms, profile holds %v ms", got, want)
	}
}

func TestStatsSumAcrossGenerations(t *testing.T) {
	// Each reading is what /v1/stats reports for the live generation.
	readings := []int64{100, 700, 50, 400} // phase start, before a reload, before another, phase end
	i := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var st v1.StatsResponse
		st.Clusters = []v1.ClusterStats{{Name: "beluga"}}
		st.Clusters[0].Stats.PlanCache.Hits = readings[i]
		st.Clusters[0].Stats.PlanCache.Misses = readings[i] / 10
		i++
		if err := json.NewEncoder(w).Encode(&st); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, err := newClient(&daemon{httpAddr: strings.TrimPrefix(ts.URL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var s statsSum
	for k, sign := range []int64{-1, 1, 1, 1} {
		cluster := "beluga"
		if k == 0 || k == 3 {
			cluster = ""
		}
		if err := s.read(c, cluster, sign); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 1 ran from 100 to 700, generation 2 from 0 to 50,
	// generation 3 from 0 to 400.
	if want := int64(600 + 50 + 400); s.total.hits != want {
		t.Errorf("summed hits = %d, want %d", s.total.hits, want)
	}
	if want := int64(60 + 5 + 40); s.total.misses != want {
		t.Errorf("summed misses = %d, want %d", s.total.misses, want)
	}
}

func TestAssembleReordersFig7(t *testing.T) {
	opts := exp.DefaultOptions()
	cells := figCells(opts)
	if len(cells) != 17 {
		t.Fatalf("%d cells per regeneration, want 17", len(cells))
	}
	figs := make([]*exp.Figure, len(cells))
	var want5, want7a, want7b []string
	for i, c := range cells {
		f := &exp.Figure{ID: c.fig, Caption: "caption " + c.fig}
		switch c.fig {
		case "fig4":
			f.Panels = []exp.Panel{{Title: "theta"}}
		case "fig7":
			a, r := "alltoall "+c.String(), "allreduce "+c.String()
			f.Panels = []exp.Panel{{Title: a}, {Title: r}}
			want7a, want7b = append(want7a, a), append(want7b, r)
		default:
			w1, w16 := c.String()+" win=1", c.String()+" win=16"
			f.Panels = []exp.Panel{{Title: w1}, {Title: w16}}
			if c.fig == "fig5" {
				want5 = append(want5, w1, w16)
			}
		}
		figs[i] = f
	}
	out, err := assemble(cells, figs)
	if err != nil {
		t.Fatal(err)
	}
	titles := func(f *exp.Figure) []string {
		var ts []string
		for _, p := range f.Panels {
			ts = append(ts, p.Title)
		}
		return ts
	}
	if got := titles(out[1]); !reflect.DeepEqual(got, want5) {
		t.Errorf("fig5 panels %v, want %v", got, want5)
	}
	if got, want := titles(out[3]), append(want7a, want7b...); !reflect.DeepEqual(got, want) {
		t.Errorf("fig7 panels %v, want every alltoall before every allreduce: %v", got, want)
	}
	if out[3].ID != "fig7" || out[3].Caption != "caption fig7" {
		t.Errorf("fig7 header %q %q", out[3].ID, out[3].Caption)
	}
}

func TestFigsReferenceCheck(t *testing.T) {
	ref, err := loadFigsRef("..")
	if err != nil {
		t.Fatal(err)
	}
	// 3 fig4 panels, 12 each for fig5 and fig6, 8 for fig7.
	if n := len(ref.blocks); n != 35 {
		t.Errorf("%d reference panel tables, want 35", n)
	}
	f, err := figCell{fig: "fig4"}.run(exp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkCell(f); err != nil {
		t.Errorf("fig4 cell: %v", err)
	}
	f.Panels[1].Series[0].Points[2].Value += 0.01
	if err := ref.checkCell(f); err == nil {
		t.Error("a changed theta value passed the reference check")
	}
}

func TestSeedsGiveIdenticalInputs(t *testing.T) {
	gpus := []int{8, 8, 4, 4}
	for step := 0; step < 50; step++ {
		a, b := stepPlan(defaultSeed, step, gpus, 1.5), stepPlan(defaultSeed, step, gpus, 1.5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: same seed, different actions", step)
		}
	}
	differs := false
	for step := 0; step < 50 && !differs; step++ {
		differs = !reflect.DeepEqual(stepPlan(defaultSeed, step, gpus, 0), stepPlan(heldOutSeed, step, gpus, 0))
	}
	if !differs {
		t.Error("default and held-out seeds generate the same transfers steps")
	}

	enc := func(seed uint64) []byte {
		in, err := makeServeInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, e := range in.batches {
			buf.Write(e.body)
			buf.Write(e.frame)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(defaultSeed), enc(defaultSeed)) {
		t.Error("same seed, different serve inputs")
	}
	if bytes.Equal(enc(defaultSeed), enc(heldOutSeed)) {
		t.Error("default and held-out seeds generate the same serve inputs")
	}
}

// goldenWindow runs set-up and the golden prefix of the transfers workload.
func goldenWindow(t *testing.T, seed uint64, tr *spans) golden {
	r, err := setupRack(seed)
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(r)
	next := 0
	ph, err := r.run(&next, 0, goldenSteps, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 {
		t.Fatalf("%d of %d steps failed", ph.failed, ph.steps)
	}
	return w.record(r)
}

func TestTransfersGolden(t *testing.T) {
	got := goldenWindow(t, defaultSeed, nil)
	if traced := goldenWindow(t, defaultSeed, newSpans()); traced != got {
		t.Errorf("tracing changed the outputs:\n%+v\n%+v", traced, got)
	}
	if got.Retries == 0 || got.Failovers == 0 {
		t.Errorf("fault plan never fired: %+v", got)
	}
	path := filepath.Join("testdata", "transfers_golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	if got != *want {
		t.Errorf("golden window differs from %s (rerun with -update after an intended change):\ngot  %+v\nwant %+v", path, got, *want)
	}
}

// inProcessDaemon serves the v1 API over HTTP and TCP from this process,
// standing in for the mpserve child.
func inProcessDaemon(t *testing.T) *daemon {
	reg, err := presetRegistry()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Options{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := serve.NewTCPServer(srv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ts.Serve(ln) // returns once Close stops it
	}()
	t.Cleanup(func() {
		if err := ts.Close(); err != nil {
			t.Error(err)
		}
		<-done
	})
	return &daemon{pid: os.Getpid(), httpAddr: strings.TrimPrefix(hs.URL, "http://"), tcpAddr: ln.Addr().String()}
}

func TestProbeMatchesInProcess(t *testing.T) {
	ref, err := presetRegistry()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeServeInputs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := prepare(inProcessDaemon(t), in, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer s.c.close()
	errPct, gbps, err := probeExecution(s.probed, in)
	if err != nil {
		t.Fatal(err)
	}
	if !(errPct > 0) || !(gbps > 0) {
		t.Errorf("probe execution: error %v%%, goodput %v GB/s", errPct, gbps)
	}
}

func TestLoadBothTransports(t *testing.T) {
	ref, err := presetRegistry()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeServeInputs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := prepare(inProcessDaemon(t), in, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer s.c.close()
	ph, err := s.load(in, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || ph.plans == 0 || len(ph.httpSecs) == 0 || len(ph.tcpSecs) == 0 {
		t.Fatalf("%d of %d plans failed; %d http and %d tcp requests", ph.failed, ph.plans, len(ph.httpSecs), len(ph.tcpSecs))
	}
	if got := int64(len(ph.secs)) * batchItems; got != ph.plans {
		t.Errorf("%d requests recorded for %d plans", len(ph.secs), ph.plans)
	}
	if len(ph.log) != len(ph.secs)+len(ph.reloadSecs) {
		t.Errorf("log holds %d entries for %d requests and %d reloads", len(ph.log), len(ph.secs), len(ph.reloadSecs))
	}
	if ph.stats.total.hits+ph.stats.total.misses == 0 {
		t.Error("no plan-cache activity summed from /v1/stats")
	}
}

func TestBodiesCheckEveryArrival(t *testing.T) {
	answer := func(failed int) []byte {
		resp := v1.BatchResponse{Results: make([]v1.BatchResult, batchItems), Failed: failed}
		for i := range resp.Results {
			resp.Results[i].PredictedSeconds = 1e-3
		}
		for i := 0; i < failed; i++ {
			resp.Results[i] = v1.BatchResult{Error: &v1.ErrorBody{Code: v1.ErrCodePlanFailed}}
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := bodies{}
	for i := 0; i < 3; i++ {
		got.add(answer(0))
		got.add(answer(2))
	}
	got.add([]byte("not json"))
	decode := func(raw []byte) (*v1.BatchResponse, error) {
		var resp v1.BatchResponse
		return &resp, json.Unmarshal(raw, &resp)
	}
	if bad, want := got.check(decode), 3*2+batchItems; bad != want {
		t.Errorf("%d failed items, want %d", bad, want)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
