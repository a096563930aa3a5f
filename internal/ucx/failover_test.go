package ucx

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/sim"
)

// newFaultCtx builds a context on a named preset so tests can reach the
// node for link manipulation.
func newFaultCtx(t *testing.T, spec *hw.Spec, cfg Config) (*sim.Simulator, *hw.Node, *Context) {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, node, ctx
}

func failAt(t *testing.T, s *sim.Simulator, node *hw.Node, ref hw.LinkRef, at float64) {
	t.Helper()
	link, err := node.ResolveLink(ref)
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(at, link.FailLink)
}

func TestFailoverPermanentStagingFailure(t *testing.T) {
	// A staging link (0→2) dies permanently mid-transfer. The transfer
	// must complete via the surviving paths, with counters recording the
	// retry and the exclusion.
	s, node, ctx := newFaultCtx(t, hw.Narval(), DefaultConfig())
	failAt(t, s, node, hw.NVLinkRef(0, 2), 100e-6)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() != nil {
		t.Fatalf("transfer failed despite failover: %v", req.Done.Err())
	}
	if req.Retries < 1 {
		t.Fatalf("retries = %d, want ≥ 1", req.Retries)
	}
	if req.Failovers < 1 {
		t.Fatalf("failovers = %d, want ≥ 1", req.Failovers)
	}
	if st := ctx.StatsSnapshot(); st.Retries != int64(req.Retries) || st.Failovers != int64(req.Failovers) {
		t.Fatalf("context counters %d/%d != request %d/%d",
			st.Retries, st.Failovers, req.Retries, req.Failovers)
	}
	// The re-plan must not route through the dead staging hop.
	for _, pp := range req.Plan.ActivePaths() {
		if pp.Path.Kind == hw.GPUStaged && pp.Path.Via == 2 {
			t.Fatalf("final plan still uses failed staging GPU 2: %+v", pp.Path)
		}
	}
}

func TestFailoverDirectLinkFailure(t *testing.T) {
	// Even the direct link dying is survivable: the re-plan shifts all
	// bytes to staged paths.
	s, node, ctx := newFaultCtx(t, hw.Narval(), DefaultConfig())
	failAt(t, s, node, hw.NVLinkRef(0, 1), 100e-6)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() != nil {
		t.Fatalf("transfer failed despite failover: %v", req.Done.Err())
	}
	for _, pp := range req.Plan.ActivePaths() {
		if pp.Path.Kind == hw.Direct {
			t.Fatalf("final plan still uses the dead direct link: %+v", pp.Path)
		}
	}
}

func TestFailoverDisabledSurfacesError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailoverEnable = false
	s, node, ctx := newFaultCtx(t, hw.Narval(), cfg)
	failAt(t, s, node, hw.NVLinkRef(0, 1), 100e-6)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(req.Done.Err(), fluid.ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", req.Done.Err())
	}
	if req.Retries != 0 || ctx.StatsSnapshot().Retries != 0 {
		t.Fatal("retries counted with failover disabled")
	}
}

func TestFailoverTransientFlap(t *testing.T) {
	// The direct link flaps down and back up; the transfer's first attempt
	// fails, the retry completes over the survivors.
	s, node, ctx := newFaultCtx(t, hw.Narval(), DefaultConfig())
	var fp hw.FaultPlan
	fp.Flap(100e-6, hw.NVLinkRef(0, 1), 200e-6)
	if _, err := fp.Arm(node); err != nil {
		t.Fatal(err)
	}
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() != nil {
		t.Fatalf("transfer failed despite flap failover: %v", req.Done.Err())
	}
	if req.Retries < 1 {
		t.Fatalf("retries = %d, want ≥ 1", req.Retries)
	}
}

func TestFailoverExhaustedRetriesFails(t *testing.T) {
	// Every path 0→1 on Narval crosses either the direct link, a staging
	// GPU, or host memory. Kill them all: retries must exhaust, the
	// request must fail — and never hang.
	s, node, ctx := newFaultCtx(t, hw.Narval(), DefaultConfig())
	refs := []hw.LinkRef{
		hw.NVLinkRef(0, 1), hw.NVLinkRef(0, 2), hw.NVLinkRef(0, 3),
		hw.PCIeUpRef(0),
	}
	for _, ref := range refs {
		failAt(t, s, node, ref, 100e-6)
	}
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() == nil {
		t.Fatal("transfer succeeded with every egress link dead")
	}
}

// badKindPlanner hands the engine a plan with an unknown path kind: the
// resulting error is not path-local, so failover must surface it untouched.
type badKindPlanner struct{}

func (badKindPlanner) PlanTransfer(paths []hw.Path, n float64) (*core.Plan, error) {
	pp := core.PathPlan{
		Path:   hw.Path{Kind: hw.PathKind(99), Src: 0, Dst: 1},
		Bytes:  n,
		Chunks: 1,
		Param:  core.PathParam{Legs: []core.LinkParam{{Alpha: 1e-6, Beta: 1 * hw.GBps}}},
	}
	return &core.Plan{Src: 0, Dst: 1, Bytes: n, Paths: []core.PathPlan{pp}, PredictedTime: 1e-3}, nil
}

func TestFailoverFatalErrorNotRetried(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Planner = badKindPlanner{}
	s, _, ctx := newFaultCtx(t, hw.Beluga(), cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() == nil || !strings.Contains(req.Done.Err().Error(), "unknown path kind") {
		t.Fatalf("err = %v, want unknown-path-kind", req.Done.Err())
	}
	if req.Retries != 0 {
		t.Fatalf("fatal error consumed %d retries", req.Retries)
	}
}

func TestAdaptiveSegmentsHealthyParity(t *testing.T) {
	// Segmented planning on a healthy machine must deliver every byte and
	// use no retries.
	cfg := DefaultConfig()
	cfg.AdaptSegments = 8
	cfg.AdaptMinBytes = 4 * hw.MiB
	s, _, ctx := newFaultCtx(t, hw.Narval(), cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() != nil {
		t.Fatal(req.Done.Err())
	}
	if req.Retries != 0 || req.Failovers != 0 {
		t.Fatalf("healthy run counted retries=%d failovers=%d", req.Retries, req.Failovers)
	}
	if req.Elapsed() <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestStartTransferMatchesLegacyTransferTiming(t *testing.T) {
	// StartTransfer is the primitive behind the public Transfer API; with
	// defaults it must reproduce the legacy plan-then-execute timing.
	s, _, ctx := newFaultCtx(t, hw.Narval(), DefaultConfig())
	req, err := ctx.StartTransfer(0, 1, 64*hw.MiB, hw.AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if req.Done.Err() != nil {
		t.Fatal(req.Done.Err())
	}
	// No protocol overheads: elapsed must equal the engine time, which the
	// model predicts within its usual tolerance.
	if req.Plan == nil {
		t.Fatal("no plan recorded")
	}
	rel := math.Abs(req.Elapsed()-req.Plan.PredictedTime) / req.Plan.PredictedTime
	if rel > 0.25 {
		t.Fatalf("elapsed %v vs predicted %v (rel %.2f)", req.Elapsed(), req.Plan.PredictedTime, rel)
	}
}

func TestFailoverStressRace(t *testing.T) {
	// Exercise the fault path under -race: concurrent planning traffic
	// from goroutines while the simulator (single-threaded) runs transfers
	// through failures. Planning is the concurrent API; execution stays on
	// the sim thread.
	cfg := DefaultConfig()
	cfg.Recalibrate = true
	s, node, ctx := newFaultCtx(t, hw.Narval(), cfg)
	failAt(t, s, node, hw.NVLinkRef(0, 2), 50e-6)
	failAt(t, s, node, hw.NVLinkRef(0, 1), 150e-6)

	var reqs []*Request
	for i := 0; i < 4; i++ {
		ep := endpoint(t, ctx, 0, 1)
		req, err := ep.Put(32 * hw.MiB)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := float64(1+(i+g)%8) * hw.MiB
				if _, err := ctx.PlanFor(g%3, 1+g%3, n, nil); err != nil &&
					!strings.Contains(err.Error(), "no usable") {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	for i, req := range reqs {
		if !req.Done.Fired() {
			t.Fatalf("request %d hung", i)
		}
		if req.Done.Err() != nil {
			t.Fatalf("request %d failed: %v", i, req.Done.Err())
		}
	}
}

// TestParseConfigFaultKeys sets the five fault and adaptation keys together
// in one environment; each must land in its own field, with every other
// field left at its default.
func TestParseConfigFaultKeys(t *testing.T) {
	cfg, err := ParseConfig(map[string]string{
		"UCX_MP_FAILOVER":        "n",
		"UCX_MP_MAX_RETRIES":     "5",
		"UCX_MP_ADAPT_SEGMENTS":  "8",
		"UCX_MP_ADAPT_MIN_BYTES": "4194304",
		"UCX_MP_RECALIBRATE":     "y",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.FailoverEnable = false
	want.FailoverMaxRetries = 5
	want.AdaptSegments = 8
	want.AdaptMinBytes = 4194304
	want.Recalibrate = true
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("got %+v\nwant %+v", cfg, want)
	}
}

func TestParseConfigRejectsBadValues(t *testing.T) {
	cases := []map[string]string{
		{"UCX_MP_ENABLE": "maybe"},
		{"UCX_MP_PATHS": "5gpus"},
		{"UCX_RNDV_THRESH": "-1"},
		{"UCX_RNDV_THRESH": "lots"},
		{"UCX_MP_MAX_CHUNKS": "0"},
		{"UCX_MP_PIPELINING": "2"},
		{"UCX_MP_BIDIR_AWARE": ""},
		{"UCX_MP_ADAPTIVE_PHI": "x"},
		{"UCX_MP_LOAD_AWARE": "x"},
		{"UCX_MP_FAILOVER": "x"},
		{"UCX_MP_MAX_RETRIES": "-1"},
		{"UCX_MP_MAX_RETRIES": "three"},
		{"UCX_MP_ADAPT_SEGMENTS": "0"},
		{"UCX_MP_ADAPT_MIN_BYTES": "-5"},
		{"UCX_RNDV_THRESH": "NaN"},
		{"UCX_RNDV_THRESH": "Inf"},
		{"UCX_RNDV_THRESH": "1e400"},
		{"UCX_MP_ADAPT_MIN_BYTES": "NaN"},
		{"UCX_MP_ADAPT_MIN_BYTES": "+Inf"},
		{"UCX_RNDV_THRESH": "0.5"},
		{"UCX_RNDV_THRESH": "0x1p4"},
		{"UCX_RNDV_THRESH": "1e6"},
		{"UCX_MP_ADAPT_MIN_BYTES": "0.5"},
		{"UCX_MP_ADAPT_MIN_BYTES": "0x1p4"},
		{"UCX_MP_ADAPT_MIN_BYTES": "1e6"},
		{"UCX_MP_RECALIBRATE": "7"},
		{"UCX_NOT_A_KEY": "1"},
	}
	for i, env := range cases {
		if _, err := ParseConfig(env); err == nil {
			t.Errorf("case %d (%v): accepted", i, env)
		}
	}
}
