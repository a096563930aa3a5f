// Autotune: the value proposition of the paper's model — replacing
// exhaustive offline search with a closed-form computation. For each
// message size the example runs (a) the exhaustive static search of [35]
// and (b) the analytical model, then compares achieved bandwidth and
// tuning cost (simulator runs out of the search grid vs one formula).
package main

import (
	"fmt"
	"log"

	multipath "repro"
	"repro/internal/hw"
	"repro/internal/pipeline"
	"repro/internal/tuner"
)

func main() {
	spec := multipath.Beluga()
	searchOpts := tuner.DefaultSearchOptions()

	fmt.Println("model-driven tuning vs exhaustive search (Beluga, 3 GPU paths)")
	fmt.Printf("\n%-10s  %14s  %14s  %10s  %15s\n",
		"size", "static GB/s", "dynamic GB/s", "gap", "measured/grid")

	for _, n := range []float64{4 * multipath.MiB, 16 * multipath.MiB, 64 * multipath.MiB, 256 * multipath.MiB} {
		static, err := tuner.ExhaustiveSearch(spec, 0, 1, hw.ThreeGPUs, n, searchOpts)
		if err != nil {
			log.Fatal(err)
		}

		sys, err := multipath.NewSystem(spec, multipath.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sys.Plan(0, 1, n, multipath.ThreeGPUs)
		if err != nil {
			log.Fatal(err)
		}
		elapsed, err := tuner.MeasurePlan(spec, plan, pipeline.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		dynamicBW := n / elapsed
		gap := (static.Bandwidth - dynamicBW) / static.Bandwidth * 100

		fmt.Printf("%7.0fMiB  %14.2f  %14.2f  %9.2f%%  %15s\n",
			n/multipath.MiB, static.Bandwidth/1e9, dynamicBW/1e9, gap,
			fmt.Sprintf("%d/%d", static.Measured, static.Measured+static.Pruned))
	}

	fmt.Println("\nthe model reaches the searched optimum within a few percent")
	fmt.Println("with zero search evaluations (one closed-form computation).")
}
