package ucx

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

// documentedEnv holds a valid value for every key ParseConfig documents.
var documentedEnv = []string{
	"UCX_MP_ENABLE=y",
	"UCX_MP_PATHS=3gpus_host",
	"UCX_RNDV_THRESH=65536",
	"UCX_MP_MAX_CHUNKS=16",
	"UCX_MP_PIPELINING=n",
	"UCX_MP_BIDIR_AWARE=y",
	"UCX_MP_ADAPTIVE_PHI=yes",
	"UCX_MP_LOAD_AWARE=1",
	"UCX_MP_FAILOVER=off",
	"UCX_MP_MAX_RETRIES=0",
	"UCX_MP_ADAPT_SEGMENTS=4",
	"UCX_MP_ADAPT_MIN_BYTES=16777216",
	"UCX_MP_GRAPHS=true",
	"UCX_MP_RECALIBRATE=on",
	"UCX_MP_TRACE=no",
}

// FuzzParseConfig feeds environments, one KEY=VALUE per line, to
// ParseConfig. Every environment it accepts gives whole, finite,
// non-negative byte thresholds and a Config that NewContext accepts on
// Beluga.
func FuzzParseConfig(f *testing.F) {
	for _, kv := range documentedEnv {
		f.Add(kv)
	}
	f.Add(strings.Join(documentedEnv, "\n"))
	f.Fuzz(func(t *testing.T, doc string) {
		env := map[string]string{}
		for _, line := range strings.Split(doc, "\n") {
			k, v, _ := strings.Cut(line, "=")
			env[k] = v
		}
		cfg, err := ParseConfig(env)
		if err != nil {
			return
		}
		bad := func(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) || v != math.Trunc(v) }
		if bad(cfg.RndvThreshold) || bad(cfg.AdaptMinBytes) {
			t.Fatalf("%v: RndvThreshold %v, AdaptMinBytes %v", env, cfg.RndvThreshold, cfg.AdaptMinBytes)
		}
		node, err := hw.Build(sim.New(), hw.Beluga())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewContext(cuda.NewRuntime(node), cfg); err != nil {
			t.Fatalf("%v: NewContext: %v", env, err)
		}
	})
}
