package ucx

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

// TestPutAllocs holds the allocation budget of one warm Put run to
// completion, per execution mode. A rise means the transfer hot path
// gained a per-Put allocation.
func TestPutAllocs(t *testing.T) {
	graphs := func(c *Config) { c.GraphsEnable = true }
	pool := func(c *Config) { c.AdaptSegments = 8 }
	for _, row := range []struct {
		name   string
		spec   func() *hw.Spec
		bytes  float64
		set    []func(*Config)
		budget float64
	}{
		{"eager 4KiB", hw.Beluga, 4 * hw.KiB, nil, 5},
		{"rendezvous multipath off", hw.Beluga, 64 * hw.MiB, []func(*Config){func(c *Config) { c.MultipathEnable = false }}, 5},
		{"whole-residual", hw.Beluga, 64 * hw.MiB, nil, 153},
		{"whole-residual graphs", hw.Beluga, 64 * hw.MiB, []func(*Config){graphs}, 57},
		{"chunk-pool", hw.Narval, 64 * hw.MiB, []func(*Config){pool}, 433},
		{"chunk-pool graphs", hw.Narval, 64 * hw.MiB, []func(*Config){pool, graphs}, 649},
	} {
		cfg := DefaultConfig()
		for _, set := range row.set {
			set(&cfg)
		}
		s := sim.New()
		node, err := hw.Build(s, row.spec())
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(cuda.NewRuntime(node), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint(t, ctx, 0, 1)
		put := func() {
			req, err := ep.Put(row.bytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if err := req.Done.Err(); err != nil {
				t.Fatal(err)
			}
		}
		put()
		got := testing.AllocsPerRun(50, put)
		t.Logf("%s: %v allocs per Put", row.name, got)
		if got > row.budget {
			t.Errorf("%s: %v allocs per Put, budget %v", row.name, got, row.budget)
		}
	}
}
