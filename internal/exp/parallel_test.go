package exp

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/tuner"
)

// parallelTestOptions is a reduced grid that still yields multiple panels,
// so the worker pool actually interleaves work.
func parallelTestOptions() Options {
	opts := QuickOptions()
	opts.PathSets = []string{"2gpus", "3gpus"}
	opts.Windows = []int{1, 4}
	opts.Sizes = []float64{8 * hw.MiB, 64 * hw.MiB}
	opts.CollSizes = []float64{16 * hw.MiB}
	return opts
}

// TestFig5ParallelMatchesSequential requires the parallel runner to emit a
// figure deeply equal to the sequential one — same panels, same order,
// bit-identical values.
func TestFig5ParallelMatchesSequential(t *testing.T) {
	opts := parallelTestOptions()
	seq, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Panels) != 4 {
		t.Fatalf("expected 4 panels, got %d", len(seq.Panels))
	}
	opts.Workers = 4
	opts.Search.Workers = 4
	par, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel fig5 differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFig7ParallelMatchesSequential does the same for the collective grid.
func TestFig7ParallelMatchesSequential(t *testing.T) {
	opts := parallelTestOptions()
	seq, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Panels) == 0 {
		t.Fatal("no panels")
	}
	opts.Workers = 3
	par, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel fig7 differs from sequential")
	}
}

// TestPlannerCacheSingleFlight checks concurrent panels share one static
// tuning per (cluster, path set) instead of duplicating the search: 8
// callers of one key all get the identical planner, a second key gets its
// own, and a failed build is not retried but shares its error.
func TestPlannerCacheSingleFlight(t *testing.T) {
	opts := parallelTestOptions()
	pc := newPlannerCache(opts)
	const callers = 8
	type res struct {
		sp  *tuner.StaticPlanner
		err error
	}
	out := make(chan res, callers)
	for i := 0; i < callers; i++ {
		go func() {
			sp, err := pc.get("beluga", "2gpus")
			out <- res{sp, err}
		}()
	}
	first := <-out
	if first.err != nil {
		t.Fatal(first.err)
	}
	for i := 1; i < callers; i++ {
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.sp != first.sp {
			t.Fatal("planner cache built duplicate planners for one key")
		}
	}
	other, err := pc.get("beluga", "3gpus")
	if err != nil {
		t.Fatal(err)
	}
	if other == first.sp {
		t.Fatal("distinct path sets share one planner")
	}
	_, err1 := pc.get("nosuch", "2gpus")
	_, err2 := pc.get("nosuch", "2gpus")
	if err1 == nil || err1 != err2 {
		t.Fatalf("failed build not shared: %v, %v", err1, err2)
	}
	if n := len(pc.builds); n != 3 {
		t.Fatalf("%d builds for 3 keys", n)
	}
}
