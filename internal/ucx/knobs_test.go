package ucx

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

// knobScenario is a transfer workload on Beluga: the Puts it issues at
// t=0, each {src, dst, bytes}, and whether NVLink 0→1 fails at 100 µs.
type knobScenario struct {
	puts [][3]float64
	fail bool
}

// transferObservables runs sc under env and returns, by name, what the
// transfers expose through Put: per request the elapsed bits, Multipath,
// the plan's active paths with their chunk counts and Retries, and per
// context the graph replays, observer refits and trace span count.
func transferObservables(t *testing.T, env map[string]string, sc knobScenario) map[string]string {
	t.Helper()
	cfg, err := ParseConfig(env)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	node, err := hw.Build(s, hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.fail {
		failAt(t, s, node, hw.NVLinkRef(0, 1), 100e-6)
	}
	var reqs []*Request
	for _, p := range sc.puts {
		req, err := endpoint(t, ctx, int(p[0]), int(p[1])).Put(p[2])
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var elapsed, multipath, plan, retries strings.Builder
	for _, req := range reqs {
		fmt.Fprintf(&elapsed, "%#x ", math.Float64bits(req.Elapsed()))
		fmt.Fprintf(&multipath, "%t ", req.Multipath)
		fmt.Fprintf(&retries, "%d ", req.Retries)
		if req.Plan != nil {
			for _, pp := range req.Plan.ActivePaths() {
				fmt.Fprintf(&plan, "%s/%d ", pp.Path, pp.Chunks)
			}
		}
		plan.WriteString("| ")
	}
	refits := int64(0)
	if o := ctx.Observer(); o != nil {
		refits = o.Stats().Refits
	}
	return map[string]string{
		"elapsed":   elapsed.String(),
		"multipath": multipath.String(),
		"plan":      plan.String(),
		"retries":   retries.String(),
		"replays":   fmt.Sprint(ctx.GraphStats().Replays),
		"refits":    fmt.Sprint(refits),
		"spans":     fmt.Sprint(ctx.Tracer().Len()),
	}
}

// TestEnvKeysMoveTransfers closes the knob audit: for every key
// ParseConfig documents, setting it moves a transfer observable through
// Put. Each row runs its scenario with the base environment and with the
// key added, and names the observable that must differ.
func TestEnvKeysMoveTransfers(t *testing.T) {
	big := knobScenario{puts: [][3]float64{{0, 1, 64 * hw.MiB}}}
	// shared puts two transfers from GPU 0 over overlapping links.
	shared := knobScenario{puts: [][3]float64{{0, 1, 64 * hw.MiB}, {0, 2, 64 * hw.MiB}}}
	rows := []struct {
		key, value string
		base       map[string]string
		sc         knobScenario
		moves      string
	}{
		{"UCX_MP_ENABLE", "n", nil, big, "multipath"},
		{"UCX_MP_PATHS", "2gpus", nil, big, "plan"},
		{"UCX_RNDV_THRESH", "1048576", nil, knobScenario{puts: [][3]float64{{0, 1, 256 * hw.KiB}}}, "multipath"},
		{"UCX_MP_MAX_CHUNKS", "2", nil, big, "plan"},
		{"UCX_MP_PIPELINING", "n", nil, big, "plan"},
		{"UCX_MP_BIDIR_AWARE", "y", nil, big, "elapsed"},
		{"UCX_MP_ADAPTIVE_PHI", "y", nil, knobScenario{puts: [][3]float64{{0, 1, 4 * hw.MiB}}}, "plan"},
		{"UCX_MP_LOAD_AWARE", "y", nil, shared, "elapsed"},
		{"UCX_MP_FAILOVER", "n", nil, knobScenario{puts: big.puts, fail: true}, "retries"},
		{"UCX_MP_MAX_RETRIES", "0", nil, knobScenario{puts: big.puts, fail: true}, "retries"},
		{"UCX_MP_ADAPT_SEGMENTS", "8", nil, big, "elapsed"},
		{"UCX_MP_ADAPT_MIN_BYTES", "134217728", map[string]string{"UCX_MP_ADAPT_SEGMENTS": "8"}, big, "elapsed"},
		{"UCX_MP_GRAPHS", "y", nil, big, "replays"},
		{"UCX_MP_RECALIBRATE", "y", nil, shared, "refits"},
		{"UCX_MP_TRACE", "y", nil, big, "spans"},
	}
	documented := map[string]bool{}
	for _, kv := range documentedEnv {
		k, _, _ := strings.Cut(kv, "=")
		documented[k] = true
	}
	for _, r := range rows {
		delete(documented, r.key)
		env := map[string]string{}
		for k, v := range r.base {
			env[k] = v
		}
		before := transferObservables(t, env, r.sc)
		env[r.key] = r.value
		after := transferObservables(t, env, r.sc)
		if before[r.moves] == after[r.moves] {
			t.Errorf("%s=%s leaves %s at %q", r.key, r.value, r.moves, before[r.moves])
		}
	}
	for k := range documented {
		t.Errorf("documented key %s has no row", k)
	}
}
