package exp

import (
	"io"

	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// ObsTraceInfo summarizes one ObsTrace run.
type ObsTraceInfo struct {
	Spans    int
	Instants int
	Stats    ucx.StatsSnapshot
}

// ObsTrace runs a fault-rich traced transfer — the fig7-class adaptive
// runtime (chunk-pool segmentation, recalibration, failover) with the
// direct link degraded mid-transfer — and writes the Perfetto trace JSON
// to w. The run is fully deterministic: two calls produce byte-identical
// traces. It backs mpbench's -trace flag.
func ObsTrace(cluster string, w io.Writer) (*ObsTraceInfo, error) {
	tFree, err := faultFreeTime(cluster, faultRefBytes)
	if err != nil {
		return nil, err
	}
	var fp hw.FaultPlan
	fp.Degrade(0.5*tFree, hw.NVLinkRef(0, 1), 0.5)

	spec, err := specFor(cluster)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		return nil, err
	}
	cfg := adaptiveFaultConfig()
	cfg.Trace = true
	ctx, err := ucx.NewContext(cuda.NewRuntime(node), cfg)
	if err != nil {
		return nil, err
	}
	inj, err := fp.Arm(node)
	if err != nil {
		return nil, err
	}
	inj.OnEvent(func(ev hw.FaultEvent) {
		ctx.Tracer().Instant("faults", "fault", ev.Kind.String(),
			obs.KV("link", ev.Link.String()), obs.KVf("factor", ev.Factor))
		ctx.NotifyFault()
	})
	req, err := ctx.StartTransfer(0, 1, faultRefBytes, hw.AllPaths)
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	if err := req.Done.Err(); err != nil {
		return nil, err
	}
	tr := ctx.Tracer()
	if err := tr.WritePerfetto(w); err != nil {
		return nil, err
	}
	return &ObsTraceInfo{
		Spans:    tr.Len(),
		Instants: tr.InstantCount(),
		Stats:    ctx.StatsSnapshot(),
	}, nil
}
