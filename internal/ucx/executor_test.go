package ucx

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// executorFaults are the fault settings of the executor golden: none, the
// direct NVLink 0→1 degraded to half capacity with the runtime told, the
// same link failing silently, and the link flapping.
var executorFaults = []struct {
	name   string
	arm    func(fp *hw.FaultPlan)
	notify bool
}{
	{name: "none"},
	{name: "degrade", arm: func(fp *hw.FaultPlan) { fp.Degrade(100e-6, hw.NVLinkRef(0, 1), 0.5) }, notify: true},
	{name: "fail", arm: func(fp *hw.FaultPlan) { fp.Fail(100e-6, hw.NVLinkRef(0, 1)) }},
	{name: "flap", arm: func(fp *hw.FaultPlan) { fp.Flap(100e-6, hw.NVLinkRef(0, 1), 100e-6) }},
}

// errClass names the failure class of a transfer error as failover sees it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, fluid.ErrLinkDown):
		return "linkdown"
	case errors.Is(err, cuda.ErrOutOfMemory):
		return "oom"
	}
	return "other"
}

// executorCell runs one cell of the executor golden: at t=0 it issues a
// 64 MiB Put 0→1, a 16 MiB Put 1→0, a 4 KiB Put 0→2 and a 32 MiB
// StartTransfer 2→3, runs the simulator dry, and returns the cell's record
// and, with tracing on, the SHA-256 of its Perfetto export.
func executorCell(t *testing.T, spec *hw.Spec, cfg Config, fault int, trace bool) (string, string) {
	t.Helper()
	cfg.Trace = trace
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := executorFaults[fault]; f.arm != nil {
		var fp hw.FaultPlan
		f.arm(&fp)
		inj, err := fp.Arm(node)
		if err != nil {
			t.Fatal(err)
		}
		if f.notify {
			inj.OnEvent(func(hw.FaultEvent) { ctx.NotifyFault() })
		}
	}
	type issued struct {
		name string
		req  *Request
		err  error
	}
	var reqs []issued
	put := func(src, dst int, n float64) {
		req, err := endpoint(t, ctx, src, dst).Put(n)
		reqs = append(reqs, issued{fmt.Sprintf("put %d->%d %.0f", src, dst, n), req, err})
	}
	put(0, 1, 64*hw.MiB)
	put(1, 0, 16*hw.MiB)
	put(0, 2, 4*hw.KiB)
	req, err := ctx.StartTransfer(2, 3, 32*hw.MiB, hw.AllPaths)
	reqs = append(reqs, issued{"transfer 2->3 33554432", req, err})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, r := range reqs {
		fmt.Fprintf(&b, "  %s:", r.name)
		if r.err != nil {
			fmt.Fprintf(&b, " start-err=%s\n", errClass(r.err))
			continue
		}
		req := r.req
		fmt.Fprintf(&b, " elapsed=%#x retries=%d failovers=%d multipath=%t err=%s paths=[",
			math.Float64bits(req.Elapsed()), req.Retries, req.Failovers, req.Multipath, errClass(req.Done.Err()))
		if req.Plan != nil {
			for i, pp := range req.Plan.ActivePaths() {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s/%d", pp.Path, pp.Chunks)
			}
		}
		b.WriteString("]\n")
	}
	st := ctx.StatsSnapshot()
	gs := ctx.GraphStats()
	fmt.Fprintf(&b, "  plan-cache hits=%d misses=%d\n", st.PlanCache.Hits, st.PlanCache.Misses)
	fmt.Fprintf(&b, "  graphs hits=%d misses=%d compiles=%d replays=%d patches=%d invalidations=%d evictions=%d merges=%d\n",
		gs.Hits, gs.Misses, gs.Compiles, gs.Replays, gs.Patches, gs.Invalidations, gs.Evictions, gs.InflightMerges)
	if st.Observer != nil {
		fmt.Fprintf(&b, "  observer samples=%d refits=%d\n", st.Observer.Samples, st.Observer.Refits)
	}
	if !trace {
		return b.String(), ""
	}
	var tb bytes.Buffer
	if err := ctx.Tracer().WritePerfetto(&tb); err != nil {
		t.Fatal(err)
	}
	return b.String(), fmt.Sprintf("%x", sha256.Sum256(tb.Bytes()))
}

// TestExecutorGolden pins the transfer executor's observable behaviour
// across every mode it has: Beluga and Narval × compiled graphs off/on ×
// whole-residual or 8-segment chunk-pool execution × failover on/off ×
// four fault settings, with recalibration on. Every cell must produce the
// same record with tracing on as off, and the golden keeps the SHA-256 of
// the traced run's Perfetto export. Regenerate with:
// go test ./internal/ucx -run TestExecutorGolden -update
func TestExecutorGolden(t *testing.T) {
	var out strings.Builder
	for _, cluster := range []struct {
		name string
		spec func() *hw.Spec
	}{{"beluga", hw.Beluga}, {"narval", hw.Narval}} {
		for _, graphs := range []bool{false, true} {
			for _, segs := range []int{1, 8} {
				for _, failover := range []bool{true, false} {
					for fi, f := range executorFaults {
						cfg := DefaultConfig()
						cfg.GraphsEnable = graphs
						cfg.AdaptSegments = segs
						cfg.AdaptMinBytes = 4 * hw.MiB
						cfg.FailoverEnable = failover
						cfg.Recalibrate = true
						name := fmt.Sprintf("%s graphs=%t segments=%d failover=%t fault=%s",
							cluster.name, graphs, segs, failover, f.name)
						rec, _ := executorCell(t, cluster.spec(), cfg, fi, false)
						traced, sum := executorCell(t, cluster.spec(), cfg, fi, true)
						if traced != rec {
							t.Errorf("%s: tracing changed the record\noff:\n%son:\n%s", name, rec, traced)
						}
						fmt.Fprintf(&out, "%s\n%s  trace sha256=%s\n", name, rec, sum)
					}
				}
			}
		}
	}
	golden := filepath.Join("testdata", "executor.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("executor drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("executor drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
