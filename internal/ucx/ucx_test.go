package ucx

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

func newCtx(t *testing.T, cfg Config) (*sim.Simulator, *Context) {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

func endpoint(t *testing.T, ctx *Context, src, dst int) *Endpoint {
	t.Helper()
	ep, err := ctx.NewWorker(src).Connect(dst)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.MultipathEnable || cfg.PathSet != "all" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// TestParseConfigOverrides sets each documented key, one at a time, to a
// value other than its default, and checks the parsed Config against
// DefaultConfig with exactly the field the key documents changed.
func TestParseConfigOverrides(t *testing.T) {
	rows := []struct {
		key, value string
		set        func(*Config)
	}{
		{"UCX_MP_ENABLE", "n", func(c *Config) { c.MultipathEnable = false }},
		{"UCX_MP_PATHS", "3gpus", func(c *Config) { c.PathSet = "3gpus" }},
		{"UCX_RNDV_THRESH", "131072", func(c *Config) { c.RndvThreshold = 131072 }},
		{"UCX_MP_MAX_CHUNKS", "16", func(c *Config) { c.ModelOptions.MaxChunks = 16 }},
		{"UCX_MP_PIPELINING", "no", func(c *Config) { c.ModelOptions.Pipelined = false }},
		{"UCX_MP_BIDIR_AWARE", "y", func(c *Config) { c.BidirAware = true }},
		{"UCX_MP_ADAPTIVE_PHI", "yes", func(c *Config) { c.ModelOptions.AdaptivePhi = true }},
		{"UCX_MP_LOAD_AWARE", "1", func(c *Config) { c.LoadAware = true }},
		{"UCX_MP_FAILOVER", "n", func(c *Config) { c.FailoverEnable = false }},
		{"UCX_MP_MAX_RETRIES", "5", func(c *Config) { c.FailoverMaxRetries = 5 }},
		{"UCX_MP_ADAPT_SEGMENTS", "8", func(c *Config) { c.AdaptSegments = 8 }},
		{"UCX_MP_ADAPT_MIN_BYTES", "4194304", func(c *Config) { c.AdaptMinBytes = 4194304 }},
		{"UCX_MP_GRAPHS", "on", func(c *Config) { c.GraphsEnable = true }},
		{"UCX_MP_RECALIBRATE", "y", func(c *Config) { c.Recalibrate = true }},
		{"UCX_MP_TRACE", "true", func(c *Config) { c.Trace = true }},
	}
	documented := map[string]bool{}
	for _, kv := range documentedEnv {
		k, _, _ := strings.Cut(kv, "=")
		documented[k] = true
	}
	for _, r := range rows {
		delete(documented, r.key)
		want := DefaultConfig()
		r.set(&want)
		if reflect.DeepEqual(want, DefaultConfig()) {
			t.Errorf("%s=%s is the default, so the row shows nothing", r.key, r.value)
			continue
		}
		got, err := ParseConfig(map[string]string{r.key: r.value})
		if err != nil {
			t.Errorf("%s=%s: %v", r.key, r.value, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s=%s:\n got %+v\nwant %+v", r.key, r.value, got, want)
		}
	}
	for k := range documented {
		t.Errorf("documented key %s has no row", k)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []map[string]string{
		{"UCX_MP_ENABLE": "maybe"},
		{"UCX_MP_PATHS": "9gpus"},
		{"UCX_RNDV_THRESH": "-1"},
		{"UCX_RNDV_THRESH": "abc"},
		{"UCX_MP_MAX_CHUNKS": "0"},
		{"UCX_TOTALLY_UNKNOWN": "1"},
	}
	for _, env := range bad {
		if _, err := ParseConfig(env); err == nil {
			t.Errorf("env %v accepted", env)
		}
	}
}

func TestPathSetByName(t *testing.T) {
	for name, want := range map[string]hw.PathSet{
		"direct":     hw.DirectOnly,
		"2gpus":      hw.TwoGPUs,
		"3gpus":      hw.ThreeGPUs,
		"3gpus_host": hw.ThreeGPUsWithHost,
		"all":        hw.AllPaths,
	} {
		got, err := PathSetByName(name)
		if err != nil || got != want {
			t.Errorf("PathSetByName(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := PathSetByName("bogus"); err == nil {
		t.Error("bogus path set accepted")
	}
}

func TestEagerSmallMessage(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(4 * hw.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Multipath {
		t.Error("small message should not use multipath")
	}
	// ipc open (30µs) + eager (1µs) + α (2µs) + 4KiB/48GBps ≈ 33.085µs
	want := 30e-6 + 1e-6 + 2e-6 + 4*hw.KiB/(48*hw.GBps)
	if math.Abs(req.Elapsed()-want) > 1e-9 {
		t.Fatalf("eager elapsed = %v, want %v", req.Elapsed(), want)
	}
}

func TestIpcHandleCacheAmortizes(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req1, err := ep.Put(4 * hw.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	first := req1.Elapsed()
	req2, err := ep.Put(4 * hw.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	second := req2.Elapsed()
	if second >= first {
		t.Fatalf("cached transfer not faster: %v vs %v", second, first)
	}
	if math.Abs(first-second-ipcOpenCost) > 1e-9 {
		t.Fatalf("difference %v != ipcOpenCost", first-second)
	}
	if got := ctx.StatsSnapshot().IpcOpens; got != 1 {
		t.Fatalf("ipc opens = %d, want 1", got)
	}
	// A different destination pays the open again.
	ep2 := endpoint(t, ctx, 0, 2)
	if _, err := ep2.Put(4 * hw.KiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.StatsSnapshot().IpcOpens; got != 2 {
		t.Fatalf("ipc opens = %d, want 2", got)
	}
}

func TestLargeMessageUsesMultipath(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !req.Multipath {
		t.Fatal("large message did not use multipath")
	}
	if req.Plan == nil || len(req.Plan.ActivePaths()) < 2 {
		t.Fatal("plan missing or single-path")
	}
}

func TestMultipathDisabledFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultipathEnable = false
	s, ctx := newCtx(t, cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Multipath {
		t.Fatal("multipath used despite being disabled")
	}
	// Time ≈ rndv + ipc open + α + n/β.
	want := 3e-6 + 30e-6 + 2e-6 + 64*hw.MiB/(48*hw.GBps)
	if math.Abs(req.Elapsed()-want) > 1e-7 {
		t.Fatalf("single-path elapsed = %v, want %v", req.Elapsed(), want)
	}
}

func TestMultipathBeatsSinglePath(t *testing.T) {
	elapsed := func(enable bool) float64 {
		cfg := DefaultConfig()
		cfg.MultipathEnable = enable
		s, ctx := newCtx(t, cfg)
		ep := endpoint(t, ctx, 0, 1)
		req, err := ep.Put(256 * hw.MiB)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return req.Elapsed()
	}
	single := elapsed(false)
	multi := elapsed(true)
	sp := single / multi
	if sp < 2.0 {
		t.Fatalf("multipath speedup %.2fx, want ≥ 2x on Beluga", sp)
	}
}

func TestPathSetRestrictsPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathSet = "2gpus"
	s, ctx := newCtx(t, cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(req.Plan.Paths); got != 2 {
		t.Fatalf("plan has %d paths, want 2", got)
	}
}

func TestGetIsReversedPut(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Get(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Plan.Src != 1 || req.Plan.Dst != 0 {
		t.Fatalf("get plan direction = %d->%d, want 1->0", req.Plan.Src, req.Plan.Dst)
	}
}

func TestConnectErrors(t *testing.T) {
	_, ctx := newCtx(t, DefaultConfig())
	w := ctx.NewWorker(0)
	if _, err := w.Connect(0); err == nil {
		t.Error("self-connect accepted")
	}
	if _, err := w.Connect(99); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

func TestPutRejectsBadSize(t *testing.T) {
	_, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	if _, err := ep.Put(0); err == nil {
		t.Error("zero-byte put accepted")
	}
	if _, err := ep.Put(-4); err == nil {
		t.Error("negative put accepted")
	}
}

func TestPutCountsTracked(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	for i := 0; i < 3; i++ {
		if _, err := ep.Put(8 * hw.KiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.StatsSnapshot().Puts; got != 3 {
		t.Fatalf("puts = %d, want 3", got)
	}
}

func TestParseConfigExtensionKnobs(t *testing.T) {
	for _, k := range []string{"UCX_MP_BIDIR_AWARE", "UCX_MP_ADAPTIVE_PHI", "UCX_MP_LOAD_AWARE"} {
		if _, err := ParseConfig(map[string]string{k: "maybe"}); err == nil {
			t.Errorf("%s=maybe accepted", k)
		}
	}
}

// TestFailedStartSettlesTransfer issues two transfers whose first plan
// fails — a Put hinted with a pair naming a GPU Beluga does not have, and
// a StartTransfer of a denormal byte count — and requires, once the
// simulator drains, every root span closed, nothing counted in flight, and
// every started transfer counted completed or failed.
func TestFailedStartSettlesTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	s, ctx := newCtx(t, cfg)
	if _, err := endpoint(t, ctx, 0, 1).PutHinted(64*hw.MiB, [][2]int{{0, 7}}); err == nil {
		t.Fatal("Put hinted with GPU 7 accepted")
	}
	if _, err := ctx.StartTransfer(0, 1, 1e-310, hw.AllPaths); err == nil {
		t.Fatal("StartTransfer of 1e-310 bytes accepted")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range ctx.Tracer().Spans() {
		if sp.End < sp.Start {
			t.Errorf("span %q on %s left open", sp.Name, sp.Track)
		}
	}
	m := ctx.Metrics().Snapshot()
	if g := m.Gauges["transfers.inflight"]; g != 0 {
		t.Errorf("transfers.inflight = %v, want 0", g)
	}
	started, completed, failed := m.Counters["transfers.started"], m.Counters["transfers.completed"], m.Counters["transfers.failed"]
	if started != 2 || started != completed+failed {
		t.Errorf("started %d, completed %d, failed %d", started, completed, failed)
	}
}
