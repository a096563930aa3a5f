package hw_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// FuzzSpecFromJSON feeds arbitrary topology documents to the loader, as
// PUT /v1/clusters/{name} does. Every input is either refused with an
// error, or it reloads from its own WriteJSON document bit for bit and
// builds a node on which a bounded set of GPU pairs plans without
// panicking, and every plan that succeeds predicts a positive, finite
// time.
func FuzzSpecFromJSON(f *testing.F) {
	for _, mk := range hw.Presets {
		var doc bytes.Buffer
		if err := mk().WriteJSON(&doc); err != nil {
			f.Fatal(err)
		}
		f.Add(doc.Bytes())
	}
	custom, err := os.ReadFile("../../testdata/custom-topology.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(custom)

	sets := []hw.PathSet{hw.TwoGPUs, hw.ThreeGPUsWithHost, hw.AllPaths}
	sizes := []float64{1, 4 * hw.MiB, 1 << 40}
	f.Fuzz(func(t *testing.T, doc []byte) {
		sp, err := hw.SpecFromJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		// %+v prints each float in its shortest round-trip form (-0
		// included), so equal text means equal bits.
		var own bytes.Buffer
		if err := sp.WriteJSON(&own); err != nil {
			t.Fatalf("accepted spec does not write: %v", err)
		}
		again, err := hw.SpecFromJSON(&own)
		if err != nil {
			t.Fatalf("own document refused: %v", err)
		}
		if want, have := fmt.Sprintf("%+v", *sp), fmt.Sprintf("%+v", *again); have != want {
			t.Fatalf("reload differs\n got %s\nwant %s", have, want)
		}
		node, err := hw.Build(sim.New(), sp)
		if err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
		model := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions())
		gpus := min(sp.GPUs, 4)
		for src := 0; src < gpus; src++ {
			for dst := 0; dst < gpus; dst++ {
				if src == dst {
					continue
				}
				for _, sel := range sets {
					paths, err := node.Paths(src, dst, sel)
					if err != nil {
						continue
					}
					for _, n := range sizes {
						pl, err := model.PlanTransfer(paths, n)
						if err == nil && (!(pl.PredictedTime > 0) || math.IsInf(pl.PredictedTime, 1)) {
							t.Fatalf("%d->%d %+v n=%v: predicted time %v", src, dst, sel, n, pl.PredictedTime)
						}
					}
				}
			}
		}
	})
}
