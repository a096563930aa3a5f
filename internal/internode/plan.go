package internode

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/sim"
)

// PlanEntry is one path's assignment in an inter-node plan.
type PlanEntry struct {
	Path      Path
	Param     core.PathParam
	Theta     float64
	Bytes     float64
	Chunks    int
	Predicted float64
}

// Plan is the model's configuration for one inter-node transfer.
type Plan struct {
	Bytes              float64
	Entries            []PlanEntry
	PredictedTime      float64
	PredictedBandwidth float64
}

// PlanTransfer applies the paper's model to the inter-node path set: the
// same Ω/Δ reduction, equal-time water-filling, and chunk law as the
// intra-node planner, with the RDMA injection route as the second leg.
// maxPeers limits staged paths (< 0 = all NVLink peers with own rails).
func (c *Cluster) PlanTransfer(a, srcGPU, b, dstGPU int, n float64, maxPeers int, opts core.Options) (*Plan, error) {
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil, fmt.Errorf("internode: invalid size %v", n)
	}
	paths, err := c.EnumeratePaths(a, srcGPU, b, dstGPU, maxPeers)
	if err != nil {
		return nil, err
	}
	entries := make([]PlanEntry, len(paths))
	affine := make([]core.AffinePath, len(paths))
	launchAccum := 0.0
	for i, p := range paths {
		param, err := c.params(p)
		if err != nil {
			return nil, err
		}
		phi := param.DefaultPhi(opts.PhiRefShare)
		omega, delta := param.OmegaDelta(opts.Pipelined, phi)
		if opts.AccumulateLaunch {
			delta += launchAccum
			launchAccum += param.Legs[0].Alpha
		}
		param.Phi = phi
		entries[i] = PlanEntry{Path: p, Param: param}
		affine[i] = core.AffinePath{Omega: omega, Delta: delta}
	}
	thetas, _ := core.SolveWaterFill(affine, n)

	gran := opts.Granularity
	if gran <= 0 {
		gran = 1
	}
	var assigned float64
	for i := range entries {
		share := math.Floor(thetas[i]*n/gran) * gran
		if share < 0 {
			share = 0
		}
		entries[i].Theta = thetas[i]
		entries[i].Bytes = share
		assigned += share
	}
	entries[0].Bytes += n - assigned
	entries[0].Theta = entries[0].Bytes / n

	pl := &Plan{Bytes: n, Entries: entries}
	for i := range entries {
		e := &entries[i]
		if e.Bytes <= 0 {
			continue
		}
		k := 1
		if !e.Path.Direct() && opts.Pipelined {
			kf := e.Param.LinearChunks(e.Bytes, e.Param.Phi)
			if opts.MinChunkBytes > 0 {
				if maxK := e.Bytes / opts.MinChunkBytes; kf > maxK {
					kf = maxK
				}
			}
			if kf > float64(opts.MaxChunks) {
				kf = float64(opts.MaxChunks)
			}
			k = int(math.Round(kf))
			if k < 1 {
				k = 1
			}
		}
		e.Chunks = k
		e.Predicted = affine[i].Time(e.Bytes)
		if e.Predicted > pl.PredictedTime {
			pl.PredictedTime = e.Predicted
		}
	}
	if pl.PredictedTime > 0 {
		pl.PredictedBandwidth = n / pl.PredictedTime
	}
	return pl, nil
}

// Result tracks an executed inter-node transfer.
type Result struct {
	Plan    *Plan
	Started sim.Time
	Done    *sim.Signal
}

// Elapsed returns the transfer duration once Done has fired.
func (r *Result) Elapsed() float64 {
	if !r.Done.Fired() {
		return 0
	}
	return r.Done.FiredAt() - r.Started
}

// Bandwidth returns achieved bytes/second once Done has fired.
func (r *Result) Bandwidth() float64 {
	if el := r.Elapsed(); el > 0 {
		return r.Plan.Bytes / el
	}
	return 0
}

// Execute runs the plan: the direct entry issues one RDMA write; each
// staged entry runs the three-step chunk pipeline (NVLink to the peer,
// event sync, RDMA injection through the peer's rail) with double
// buffering, exactly like the intra-node engine.
func (c *Cluster) Execute(pl *Plan) (*Result, error) {
	if pl == nil || len(pl.Entries) == 0 {
		return nil, fmt.Errorf("internode: empty plan")
	}
	res := &Result{Plan: pl, Started: c.Sim.Now()}
	var finals []*sim.Signal
	offset := 0.0
	for i := range pl.Entries {
		e := &pl.Entries[i]
		if e.Bytes <= 0 {
			continue
		}
		final := c.Sim.NewSignal()
		finals = append(finals, final)
		entry := e
		c.Sim.Schedule(offset, func() { c.startEntry(entry, final) })
		offset += e.Param.Legs[0].Alpha
	}
	if len(finals) == 0 {
		return nil, fmt.Errorf("internode: plan has no active paths")
	}
	res.Done = sim.AllOf(c.Sim, finals...)
	return res, nil
}

// pipeStage is one stage of the inter-node chunk pipeline.
type pipeStage struct {
	stream *cuda.Stream
	copy   func(bytes float64) *sim.Signal
	// eps is the synchronization cost charged before each chunk copy
	// (stages that consume a staging buffer).
	eps float64
}

func (c *Cluster) startEntry(e *PlanEntry, final *sim.Signal) {
	p := e.Path
	rtA := c.Runtimes[p.SrcNode]
	rtB := c.Runtimes[p.Dst2]
	wire := c.WireRoute(p.SrcNode, p.Via, p.Dst2, p.RemoteVia)
	eps := c.Spec.Node.GPUSyncOverhead

	var stages []pipeStage
	if p.Via != p.Src {
		st := rtA.Device(p.Src).NewStream("fanout")
		via := rtA.Device(p.Via)
		stages = append(stages, pipeStage{
			stream: st,
			copy:   func(b float64) *sim.Signal { return st.MemcpyPeerAsync(via, b) },
		})
	}
	injSt := rtA.Device(p.Via).NewStream("inject")
	injEps := 0.0
	if p.Via != p.Src {
		injEps = eps
	}
	stages = append(stages, pipeStage{
		stream: injSt,
		copy:   func(b float64) *sim.Signal { return injSt.CopyRouteAsync(wire, b) },
		eps:    injEps,
	})
	if p.RemoteVia != p.Dst {
		st := rtB.Device(p.RemoteVia).NewStream("fanin")
		dst := rtB.Device(p.Dst)
		stages = append(stages, pipeStage{
			stream: st,
			copy:   func(b float64) *sim.Signal { return st.MemcpyPeerAsync(dst, b) },
			eps:    eps,
		})
	}

	k := e.Chunks
	if k < 1 || len(stages) == 1 {
		k = 1
	}
	chunk := e.Bytes / float64(k)
	const slots = 2
	// done[j][ci] is stage j's completion event for chunk ci.
	done := make([][]cuda.Event, len(stages))
	for j := range done {
		done[j] = make([]cuda.Event, k)
	}
	var last *sim.Signal
	for ci := 0; ci < k; ci++ {
		for j, stg := range stages {
			if j > 0 {
				// Wait for the chunk to arrive at this staging point.
				stg.stream.WaitEvent(done[j-1][ci])
			}
			if j+1 < len(stages) && ci >= slots {
				// Ring buffer: the slot is free once the next stage has
				// drained the chunk that previously occupied it.
				stg.stream.WaitEvent(done[j+1][ci-slots])
			}
			if stg.eps > 0 {
				stg.stream.Delay(stg.eps)
			}
			sig := stg.copy(chunk)
			done[j][ci] = stg.stream.RecordEvent()
			if j == len(stages)-1 {
				last = sig
			}
		}
	}
	last.OnFire(func() {
		if last.Err() != nil {
			final.Fail(last.Err())
			return
		}
		final.Fire()
	})
}
