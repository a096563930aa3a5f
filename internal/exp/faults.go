package exp

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// The faults experiment measures the adaptive runtime under link faults:
// the direct NVLink of the measured pair is degraded (or a staging link
// killed) mid-transfer, and the achieved bandwidth of the fault-adaptive
// runtime — segmented re-planning, fault-notification cache invalidation,
// online recalibration, failover — is compared against the baseline that
// plans once and rides the fault out.
//
// Scenarios per cluster:
//
//   - degrade: the direct NVLink src→dst drops to a fraction of its
//     capacity at 50% of the fault-free predicted transfer time, swept
//     over degradation factors at a fixed size and over sizes at a fixed
//     factor.
//   - failure: the src→staging NVLink dies permanently mid-transfer; the
//     adaptive runtime fails over to the surviving paths while the
//     baseline (failover off) loses the transfer.

// faultOutcome is one transfer's result under a fault plan.
type faultOutcome struct {
	// Completed is false when the transfer failed (baseline under a
	// permanent failure with failover off).
	Completed bool
	Bandwidth float64 // achieved, GB/s; 0 if failed
	Retries   int
	Failovers int
}

// faultDegradeFactors is the capacity-multiplier sweep at the reference
// size; faultRefBytes is that reference size and also the size at which the
// permanent-failure scenario runs.
var faultDegradeFactors = []float64{0.75, 0.5, 0.25}

const faultRefBytes = 64 * hw.MiB

// faultSweepSizes is the message-size sweep at the reference factor 0.5.
var faultSweepSizes = []float64{16 * hw.MiB, 64 * hw.MiB, 256 * hw.MiB}

// adaptiveFaultConfig is the fault-adaptive runtime: segmented planning so
// mid-message faults are re-planned at the next boundary, and online
// recalibration with a tight window so drift is caught within a couple of
// segments.
func adaptiveFaultConfig() ucx.Config {
	cfg := ucx.DefaultConfig()
	cfg.AdaptSegments = 8
	cfg.AdaptMinBytes = 4 * hw.MiB
	cfg.Recalibrate = true
	cfg.RecalOptions.MinSamples = 2
	cfg.RecalOptions.Window = 4
	return cfg
}

// runFaultTransfer builds a fresh stack on the cluster, arms the fault
// plan, runs one src→dst transfer through the failover-capable runtime,
// and reports the outcome. When notify is set, fault events invalidate the
// plan cache (the health-notification path a real runtime gets from NVML);
// silent degradations are still caught by recalibration, just later.
func runFaultTransfer(cluster string, bytes float64, cfg ucx.Config, fp *hw.FaultPlan, notify bool) (faultOutcome, error) {
	spec, err := specFor(cluster)
	if err != nil {
		return faultOutcome{}, err
	}
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		return faultOutcome{}, err
	}
	ctx, err := ucx.NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		return faultOutcome{}, err
	}
	inj, err := fp.Arm(node)
	if err != nil {
		return faultOutcome{}, err
	}
	if notify {
		inj.OnEvent(func(hw.FaultEvent) { ctx.NotifyFault() })
	}
	req, err := ctx.StartTransfer(0, 1, bytes, hw.AllPaths)
	if err != nil {
		return faultOutcome{}, err
	}
	if err := s.Run(); err != nil {
		return faultOutcome{}, err
	}
	out := faultOutcome{Retries: req.Retries, Failovers: req.Failovers}
	if req.Done.Err() == nil {
		out.Completed = true
		if elapsed := req.Elapsed(); elapsed > 0 {
			out.Bandwidth = bytes / elapsed / 1e9
		}
	}
	return out, nil
}

// faultFreeTime predicts the fault-free transfer time at the given size,
// used to place faults mid-transfer.
func faultFreeTime(cluster string, bytes float64) (float64, error) {
	spec, err := specFor(cluster)
	if err != nil {
		return 0, err
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		return 0, err
	}
	ctx, err := ucx.NewContext(cuda.NewRuntime(node), ucx.DefaultConfig())
	if err != nil {
		return 0, err
	}
	pl, err := ctx.PlanFor(0, 1, bytes, nil)
	if err != nil {
		return 0, err
	}
	if pl.PredictedTime <= 0 {
		return 0, fmt.Errorf("exp: non-positive predicted time for %s/%v", cluster, bytes)
	}
	return pl.PredictedTime, nil
}

// faultModes are the two runtimes each scenario compares.
type faultMode struct {
	name     string
	adaptive bool
}

var faultModes = []faultMode{
	{name: "adaptive", adaptive: true},
	{name: "static", adaptive: false},
}

// runFaultCell measures one (cluster, size, factor, mode) cell: factor > 0
// degrades the direct link mid-transfer, factor == 0 kills the staging
// link permanently.
func runFaultCell(cluster string, bytes, factor float64, m faultMode) (faultOutcome, error) {
	tFree, err := faultFreeTime(cluster, bytes)
	if err != nil {
		return faultOutcome{}, err
	}
	at := 0.5 * tFree
	var fp hw.FaultPlan
	if factor > 0 {
		fp.Degrade(at, hw.NVLinkRef(0, 1), factor)
	} else {
		fp.Fail(at, hw.NVLinkRef(0, 2))
	}
	cfg := ucx.DefaultConfig()
	if m.adaptive {
		cfg = adaptiveFaultConfig()
	} else if factor == 0 {
		// The baseline has no failover: a permanent path failure is lost.
		cfg.FailoverEnable = false
	}
	return runFaultTransfer(cluster, bytes, cfg, &fp, m.adaptive)
}

// ExtFaults runs the fault-adaptation evaluation and renders one panel
// per cluster and scenario.
func ExtFaults(opts Options) (*Figure, error) {
	fig := &Figure{
		ID: "ext-faults",
		Caption: "Extension: fault adaptation, achieved bandwidth under mid-transfer link faults, " +
			"adaptive runtime (segmented re-planning + recalibration + failover) vs plan-once baseline",
	}
	for _, cluster := range opts.Clusters {
		factorPanel := Panel{
			Title:  fmt.Sprintf("%s: direct NVLink degraded to factor at t=0.5·T (64 MiB)", cluster),
			XLabel: "capacity factor", YLabel: "GB/s",
		}
		sizePanel := Panel{
			Title:  fmt.Sprintf("%s: size sweep at factor 0.5", cluster),
			XLabel: "bytes", YLabel: "GB/s",
		}
		failurePanel := Panel{
			Title:  fmt.Sprintf("%s: permanent staging-link failure at t=0.5·T (64 MiB)", cluster),
			XLabel: "bytes", YLabel: "GB/s",
		}
		for _, m := range faultModes {
			fs := Series{Name: m.name}
			for _, factor := range faultDegradeFactors {
				pt, err := runFaultCell(cluster, faultRefBytes, factor, m)
				if err != nil {
					return nil, err
				}
				fs.Points = append(fs.Points, Point{Bytes: factor, Value: pt.Bandwidth * 1e9})
			}
			factorPanel.Series = append(factorPanel.Series, fs)

			ss := Series{Name: m.name}
			for _, bytes := range faultSweepSizes {
				pt, err := runFaultCell(cluster, bytes, 0.5, m)
				if err != nil {
					return nil, err
				}
				ss.Points = append(ss.Points, Point{Bytes: bytes, Value: pt.Bandwidth * 1e9})
			}
			sizePanel.Series = append(sizePanel.Series, ss)

			pt, err := runFaultCell(cluster, faultRefBytes, 0, m)
			if err != nil {
				return nil, err
			}
			failurePanel.Series = append(failurePanel.Series, Series{
				Name:   m.name,
				Points: []Point{{Bytes: faultRefBytes, Value: pt.Bandwidth * 1e9}},
			})
		}
		fig.Panels = append(fig.Panels, factorPanel, sizePanel, failurePanel)
	}
	return fig, nil
}
