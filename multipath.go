// Package multipath is the public API of the multi-path intra-node GPU
// communication library: a reproduction of "Accelerating Intra-Node GPU
// Communication: A Performance Model for Multi-Path Transfers"
// (SC Workshops '25).
//
// The library has three layers:
//
//   - A simulated multi-GPU machine (topologies, NVLink/PCIe/UPI links,
//     CUDA streams and events) on a deterministic discrete-event core —
//     the substrate standing in for real hardware.
//   - The paper's analytical performance model: given per-path Hockney
//     parameters (α, β, ε, φ) it computes the optimal message split θ*
//     and chunk counts k* in closed form (Theorem 1, Eqs. 8/11/24, 14/19).
//   - An MPI+UCX-like runtime whose cuda_ipc layer consults the model and
//     executes transfers on a multi-path pipeline engine; collectives
//     (Allreduce, Alltoall, …) decompose into these model-driven P2P
//     transfers.
//
// Quick start:
//
//	sys, err := multipath.NewSystem(multipath.Beluga())
//	ep, err := sys.Endpoint(0, 1)
//	req, err := ep.Put(64 * multipath.MiB)
//	err = sys.Drain()
//	fmt.Println(req.Elapsed(), req.Plan.PredictedTime)
//
// # Configuring a system
//
// NewSystem takes functional options:
//
//	sys, err := multipath.NewSystem(multipath.Narval(),
//	    multipath.WithConfig(cfg),            // transport configuration
//	    multipath.WithModelOptions(mo),       // planner overrides
//	    multipath.WithFaults(&faultPlan),     // link-fault injection
//	)
//
// Migration note: the original positional form NewSystem(spec, cfg) still
// compiles and behaves identically — Config implements the Option
// interface, acting as its own WithConfig. New code should prefer the
// explicit options; the positional form is kept for source compatibility
// and may be dropped in a future major version.
//
// # Fault injection and the adaptive runtime
//
// A FaultPlan schedules deterministic link faults (degradation, permanent
// failure, down/up flaps) at simulated times:
//
//	var fp multipath.FaultPlan
//	fp.Degrade(1e-3, multipath.NVLinkRef(0, 1), 0.5) // halve capacity at t=1ms
//	fp.Fail(2e-3, multipath.PCIeUpRef(2))            // kill a PCIe lane at t=2ms
//	sys, err := multipath.NewSystem(multipath.Narval(), multipath.WithFaults(&fp))
//
// Every rendezvous transfer runs on one executor as a run of attempts,
// each one plan in flight. By default an attempt carries the whole
// undelivered residual; when it runs over a failed link the runtime
// excludes the dead path, re-plans against live capacities, and retries the
// residual bytes (Config.FailoverEnable, on by default). With
// Config.AdaptSegments each attempt is instead one chunk of a shared byte
// pool: per-path feeders pull variable-size chunks at the planner's
// predicted rates, so a mid-message degradation slows that path's pull rate
// and the healthy paths absorb the slack; fault notifications re-plan the
// residual pool against live capacities. Config.GraphsEnable replays each
// attempt's plan from a compiled transfer graph instead of enqueuing it
// eagerly. Config.Recalibrate closes the loop by correcting the model's β
// parameters when achieved times drift from predictions.
//
// Deeper control is available through the re-exported subsystem types;
// the experiment drivers that regenerate the paper's figures live in
// internal/exp and are exposed through the mpbench command.
package multipath

import (
	"fmt"
	"io"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/exp"
	"repro/internal/hw"
	"repro/internal/internode"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// Byte-size units.
const (
	KiB = hw.KiB
	MiB = hw.MiB
	GiB = hw.GiB
	// GBps is one decimal gigabyte per second, the unit link bandwidths
	// are specified in.
	GBps = hw.GBps
)

// Re-exported core types. The aliases keep one import for typical use
// while the full subsystem packages remain available internally.
type (
	// Spec declaratively describes a node topology.
	Spec = hw.Spec
	// Path identifies one candidate route (direct, GPU-staged, or
	// host-staged).
	Path = hw.Path
	// PathSet selects which path classes a transfer may use.
	PathSet = hw.PathSet
	// Plan is a planned multi-path configuration (Algorithm 1 output).
	Plan = core.Plan
	// PathParam carries one path's model parameters (α, β, ε, φ).
	PathParam = core.PathParam
	// Model is the runtime planner with its configuration cache.
	Model = core.Model
	// ModelOptions configure the planner.
	ModelOptions = core.Options
	// Config is the transport (UCX-style) configuration.
	Config = ucx.Config
	// Request is an in-flight one-sided transfer.
	Request = ucx.Request
	// World is an MPI communicator over the simulated machine.
	World = mpi.World
	// Rank is the per-process MPI handle.
	Rank = mpi.Rank
	// Proc is a simulated process (rank code receives one).
	Proc = sim.Proc
	// Profile is a measured calibration parameter store.
	Profile = calib.Profile
	// Figure is regenerated experiment data.
	Figure = exp.Figure
)

// Topology presets from the paper's evaluation (§5.1) plus extensions.
var (
	// Beluga: 4×V100, 2×NVLink-V2 per pair, single NUMA domain.
	Beluga = hw.Beluga
	// Narval: 4×A100 full mesh, 4×NVLink-V3 per pair, per-GPU NUMA.
	Narval = hw.Narval
	// NVSwitchNode: an 8-GPU NVSwitch system (future-work section).
	NVSwitchNode = hw.NVSwitchNode
	// Synthetic: the minimal 3-GPU topology used by unit tests and
	// documentation examples.
	Synthetic = hw.Synthetic
)

// Fault-injection re-exports: schedule link faults against a system with
// WithFaults and observe them through System.Faults.
type (
	// FaultPlan is a deterministic schedule of link faults.
	FaultPlan = hw.FaultPlan
	// FaultEvent is one scheduled fault.
	FaultEvent = hw.FaultEvent
	// LinkRef names one directed link of a topology.
	LinkRef = hw.LinkRef
	// Injector is an armed fault plan (returned on System.Faults).
	Injector = hw.Injector
)

// Link reference constructors for fault plans.
var (
	NVLinkRef   = hw.NVLinkRef
	PCIeUpRef   = hw.PCIeUpRef
	PCIeDownRef = hw.PCIeDownRef
	MemRef      = hw.MemRef
	InterRef    = hw.InterRef
)

// Option configures NewSystem. Config implements it directly (acting as
// WithConfig), which keeps the legacy positional NewSystem(spec, cfg) form
// compiling unchanged.
type Option = ucx.SystemOption

// WithConfig sets the transport configuration (default DefaultConfig).
func WithConfig(cfg Config) Option {
	return ucx.SystemOptionFunc(func(sc *ucx.SystemConfig) { sc.Config = cfg })
}

// WithModelOptions overrides the planner options inside the current
// transport configuration. Apply after WithConfig if both are given.
func WithModelOptions(mo ModelOptions) Option {
	return ucx.SystemOptionFunc(func(sc *ucx.SystemConfig) { sc.Config.ModelOptions = mo })
}

// WithFaults arms a fault-injection plan on the built system. The plan is
// validated against the spec; NewSystem fails on unresolvable link
// references. The armed injector is exposed as System.Faults.
func WithFaults(fp *FaultPlan) Option {
	return ucx.SystemOptionFunc(func(sc *ucx.SystemConfig) { sc.Faults = fp })
}

// Path-set selections matching the paper's figure labels.
var (
	DirectOnly        = hw.DirectOnly
	TwoGPUs           = hw.TwoGPUs
	ThreeGPUs         = hw.ThreeGPUs
	ThreeGPUsWithHost = hw.ThreeGPUsWithHost
	AllPaths          = hw.AllPaths
)

// DefaultConfig returns the default transport configuration
// (multi-path enabled, all paths, model-driven planning).
func DefaultConfig() Config { return ucx.DefaultConfig() }

// ParseConfig overlays UCX_MP_* environment-style variables onto the
// defaults.
func ParseConfig(env map[string]string) (Config, error) { return ucx.ParseConfig(env) }

// DefaultModelOptions returns the planner configuration used by the
// integrated runtime.
func DefaultModelOptions() ModelOptions { return core.DefaultOptions() }

// System bundles one simulated machine with its communication stack.
type System struct {
	// Sim is the discrete-event clock; advance it with Drain or RunFor.
	Sim *sim.Simulator
	// Node is the realized topology (links, routes).
	Node *hw.Node
	// Runtime is the simulated CUDA runtime.
	Runtime *cuda.Runtime
	// Ctx is the transport context (planner, engine, IPC cache).
	Ctx *ucx.Context
	// Faults is the armed fault injector (nil unless WithFaults was given).
	Faults *Injector
}

// NewSystem builds a machine from the spec and attaches a transport
// context. With no options the default configuration is used; pass
// WithConfig/WithModelOptions/WithFaults to customize (or a bare Config
// for the legacy positional form).
func NewSystem(spec *Spec, opts ...Option) (*System, error) {
	sc := ucx.SystemConfig{Config: ucx.DefaultConfig()}
	for _, opt := range opts {
		opt.ConfigureSystem(&sc)
	}
	s := sim.New()
	node, err := hw.Build(s, spec)
	if err != nil {
		return nil, err
	}
	rt := cuda.NewRuntime(node)
	ctx, err := ucx.NewContext(rt, sc.Config)
	if err != nil {
		return nil, err
	}
	sys := &System{Sim: s, Node: node, Runtime: rt, Ctx: ctx}
	if sc.Faults != nil {
		inj, err := sc.Faults.Arm(node)
		if err != nil {
			return nil, err
		}
		if tr := ctx.Tracer(); tr != nil {
			// Every injected fault lands on the trace's fault track at its
			// sim-time instant, alongside the runtime's reactions to it.
			inj.OnEvent(func(ev FaultEvent) {
				tr.Instant("faults", "fault", ev.Kind.String(),
					obs.KV("link", ev.Link.String()),
					obs.KVf("factor", ev.Factor))
			})
		}
		sys.Faults = inj
	}
	return sys, nil
}

// Endpoint connects a source GPU to a destination GPU.
func (sys *System) Endpoint(src, dst int) (*ucx.Endpoint, error) {
	return sys.Ctx.NewWorker(src).Connect(dst)
}

// NewWorld creates an MPI communicator of the given size (rank i ↔ GPU i).
func (sys *System) NewWorld(ranks int) (*World, error) {
	return mpi.NewWorld(sys.Ctx, ranks, mpi.DefaultOptions())
}

// Model exposes the system's planner.
func (sys *System) Model() *Model { return sys.Ctx.Model() }

// Drain runs the simulation until all outstanding work completes.
func (sys *System) Drain() error { return sys.Sim.Run() }

// Plan computes the optimal multi-path configuration for a transfer
// without executing it.
func (sys *System) Plan(src, dst int, bytes float64, sel PathSet) (*Plan, error) {
	paths, err := sys.Node.Paths(src, dst, sel)
	if err != nil {
		return nil, err
	}
	return sys.Model().PlanTransfer(paths, bytes)
}

// Transfer plans and executes one multi-path transfer and returns the
// achieved and predicted times once the simulation drains.
type TransferResult struct {
	Plan      *Plan
	Elapsed   float64
	Bandwidth float64
	// Retries counts failed attempts that were re-planned and re-executed;
	// Failovers counts paths those re-plans excluded. Both are zero on a
	// fault-free run.
	Retries   int
	Failovers int
}

// Transfer runs a single isolated transfer end to end (plan → execute →
// drain) and reports achieved vs predicted performance. It executes on the
// system's shared engine with failover active: under injected faults the
// transfer re-plans around failed paths, and the result reports how often.
func (sys *System) Transfer(src, dst int, bytes float64, sel PathSet) (*TransferResult, error) {
	req, err := sys.Ctx.StartTransfer(src, dst, bytes, sel)
	if err != nil {
		return nil, err
	}
	if err := sys.Drain(); err != nil {
		return nil, err
	}
	if req.Done.Err() != nil {
		return nil, req.Done.Err()
	}
	el := req.Elapsed()
	res := &TransferResult{
		Plan:      req.Plan,
		Elapsed:   el,
		Retries:   req.Retries,
		Failovers: req.Failovers,
	}
	if el > 0 {
		res.Bandwidth = bytes / el
	}
	return res, nil
}

// Calibrate measures a topology's model parameters (offline step).
func Calibrate(spec *Spec) (*Profile, error) {
	return calib.Calibrate(spec, calib.DefaultOptions())
}

// Preset returns a topology preset by name ("beluga", "narval",
// "nvswitch", "synthetic").
func Preset(name string) (*Spec, error) {
	mk, ok := hw.Presets[name]
	if !ok {
		return nil, fmt.Errorf("multipath: unknown preset %q", name)
	}
	return mk(), nil
}

// SpecFromJSON loads a custom topology description (bandwidths in GB/s,
// latencies in µs; see internal/hw for the schema).
func SpecFromJSON(r io.Reader) (*Spec, error) { return hw.SpecFromJSON(r) }

// Multi-node extension re-exports: a Cluster joins several nodes with NIC
// rails and plans inter-node transfers across them with the same model
// (see internal/internode).
type (
	// ClusterSpec describes a homogeneous multi-node cluster.
	ClusterSpec = internode.ClusterSpec
	// Cluster is a realized multi-node machine.
	Cluster = internode.Cluster
)

// DefaultClusterSpec returns two Narval-class nodes with one 25 GB/s NIC
// rail per NUMA domain.
func DefaultClusterSpec() *ClusterSpec { return internode.DefaultClusterSpec() }

// BuildCluster realizes a multi-node cluster on a fresh simulator.
func BuildCluster(cs *ClusterSpec) (*Cluster, error) {
	return internode.BuildCluster(sim.New(), cs)
}
