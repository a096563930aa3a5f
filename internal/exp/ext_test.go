package exp

import (
	"testing"

	"repro/internal/hw"
)

func TestExtBidirAwareReducesError(t *testing.T) {
	opts := QuickOptions()
	opts.Sizes = []float64{128 * hw.MiB, 512 * hw.MiB}
	fig, err := ExtBidirAware(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	panel := fig.Panels[0]
	for _, n := range opts.Sizes {
		naive, ok1 := panel.FindSeries(SeriesErrNaivePct).Value(n)
		aware, ok2 := panel.FindSeries(SeriesErrAwarePct).Value(n)
		if !ok1 || !ok2 {
			t.Fatalf("missing error points at %v", n)
		}
		if aware >= naive {
			t.Errorf("aware error %.1f%% not below naive %.1f%% at n=%v", aware, naive, n)
		}
	}
	// Awareness should not reduce measured bandwidth meaningfully.
	for _, n := range opts.Sizes {
		mNaive, _ := panel.FindSeries(SeriesMeasuredNaive).Value(n)
		mAware, _ := panel.FindSeries(SeriesMeasuredAware).Value(n)
		if mAware < mNaive*0.95 {
			t.Errorf("aware planning lost bandwidth: %.2f vs %.2f GB/s at n=%v",
				mAware/1e9, mNaive/1e9, n)
		}
	}
}

func TestExtPatternAwareGains(t *testing.T) {
	opts := QuickOptions()
	opts.CollSizes = []float64{32 * hw.MiB}
	fig, err := ExtPatternAware(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 {
		t.Fatalf("panels = %d, want 2", len(fig.Panels))
	}
	for _, panel := range fig.Panels {
		gain, ok := panel.FindSeries(SeriesAwareGainPct).Value(32 * hw.MiB)
		if !ok {
			t.Fatalf("%s: missing gain point", panel.Title)
		}
		if gain < -2 {
			t.Errorf("%s: pattern awareness regressed by %.1f%%", panel.Title, -gain)
		}
	}
}

func TestExtNVSwitchShape(t *testing.T) {
	opts := QuickOptions()
	opts.Sizes = []float64{64 * hw.MiB, 256 * hw.MiB}
	fig, err := ExtNVSwitch(opts)
	if err != nil {
		t.Fatal(err)
	}
	panel := fig.Panels[0]
	for _, n := range opts.Sizes {
		direct, _ := panel.FindSeries(SeriesDirect).Value(n)
		multi, _ := panel.FindSeries(SeriesDynamic).Value(n)
		if multi < direct {
			t.Errorf("nvswitch multipath below direct at %v: %.1f < %.1f GB/s",
				n, multi/1e9, direct/1e9)
		}
	}
}

func TestObsWindowScaling(t *testing.T) {
	opts := QuickOptions()
	fig, err := ObsWindowScaling(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 {
		t.Fatalf("panels = %d", len(fig.Panels))
	}
	errSeries := fig.Panels[0].FindSeries(SeriesErrPct)
	if errSeries == nil || len(errSeries.Points) != 5 {
		t.Fatal("missing window error series")
	}
	// Error at window 16 must not exceed error at window 1 (Obs. 2).
	e1 := errSeries.Points[0].Value
	e16 := errSeries.Points[len(errSeries.Points)-1].Value
	if e16 > e1+1 {
		t.Fatalf("error grew with window: %.2f%% -> %.2f%%", e1, e16)
	}
}

func TestExtAdaptivePhiHelpsSmallMessages(t *testing.T) {
	opts := QuickOptions()
	opts.Sizes = []float64{2 * hw.MiB, 8 * hw.MiB, 128 * hw.MiB}
	fig, err := ExtAdaptivePhi(opts)
	if err != nil {
		t.Fatal(err)
	}
	panel := fig.Panels[0]
	for _, n := range []float64{2 * hw.MiB, 8 * hw.MiB} {
		naive, _ := panel.FindSeries(SeriesDynNaivePhi).Value(n)
		adaptive, _ := panel.FindSeries(SeriesDynAdaptivePhi).Value(n)
		if adaptive <= naive {
			t.Errorf("adaptive φ did not help at %v: %.1f vs %.1f GB/s",
				n, adaptive/1e9, naive/1e9)
		}
	}
	// No regression at the large end.
	nBig := 128.0 * hw.MiB
	naive, _ := panel.FindSeries(SeriesDynNaivePhi).Value(nBig)
	adaptive, _ := panel.FindSeries(SeriesDynAdaptivePhi).Value(nBig)
	if adaptive < naive*0.98 {
		t.Errorf("adaptive φ regressed large messages: %.1f vs %.1f GB/s",
			adaptive/1e9, naive/1e9)
	}
}

func TestExtInterNodeShape(t *testing.T) {
	opts := QuickOptions()
	opts.Sizes = []float64{64 * hw.MiB, 256 * hw.MiB}
	fig, err := ExtInterNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	panel := fig.Panels[0]
	for _, n := range opts.Sizes {
		one, _ := panel.FindSeries(SeriesOneRail).Value(n)
		two, _ := panel.FindSeries(SeriesTwoRails).Value(n)
		all, _ := panel.FindSeries(SeriesAllRails).Value(n)
		if !(one < two && two < all) {
			t.Errorf("rail scaling broken at %v: %.1f, %.1f, %.1f GB/s",
				n, one/1e9, two/1e9, all/1e9)
		}
		errPct, _ := panel.FindSeries(SeriesErrPct).Value(n)
		if errPct > 10 {
			t.Errorf("inter-node prediction error %.1f%% at %v", errPct, n)
		}
	}
}

// The compiled-graph headline: at 4 MiB, where the multi-path split first
// kicks in, single-launch replay beats the eager engine on beluga; below
// the split (one path, nothing to save) the two engines tie.
func TestExtGraphsGainAt4MiB(t *testing.T) {
	fig, err := ExtGraphs(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 {
		t.Fatalf("panels = %d, want 1", len(fig.Panels))
	}
	gains := fig.Panels[0].FindSeries("speedup_%")
	if gain, _ := gains.Value(4 * hw.MiB); gain < 10 {
		t.Errorf("compiled gain at 4 MiB = %.2f%%, want >= 10%%", gain)
	}
	if gain, _ := gains.Value(256 * hw.KiB); gain != 0 {
		t.Errorf("compiled gain at 256 KiB = %.2f%%, want 0", gain)
	}
}

// ExtFaults renders three panels per cluster, and in the permanent-failure
// panel only the adaptive runtime delivers bandwidth.
func TestExtFaultsPanels(t *testing.T) {
	fig, err := ExtFaults(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 3 {
		t.Fatalf("panels = %d, want 3", len(fig.Panels))
	}
	failure := fig.Panels[2]
	adaptive, _ := failure.FindSeries("adaptive").Value(faultRefBytes)
	static, _ := failure.FindSeries("static").Value(faultRefBytes)
	if !(adaptive > 0) || static != 0 {
		t.Errorf("permanent failure: adaptive %.2f GB/s, static %.2f GB/s", adaptive/1e9, static/1e9)
	}
}
