// Package mpi simulates an MPI runtime over the ucx transport: one
// simulated process per rank (rank i is bound to GPU i), tagged
// point-to-point messaging with rendezvous semantics, and the GPU
// collectives the paper evaluates — MPI_Allreduce as K-nomial
// reduce-scatter + allgather and MPI_Alltoall as Bruck's algorithm (§5.3),
// both decomposed into concurrent non-blocking P2P transfers handled by
// the (optionally multi-path) cuda_ipc layer underneath.
package mpi

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// Options tune the runtime.
type Options struct {
	// ReduceBandwidth is the on-GPU reduction throughput (bytes/s)
	// charged when Allreduce combines received data. Zero disables
	// computation cost.
	ReduceBandwidth float64
	// CtrlLatency is the cost of a zero-byte (control) message.
	CtrlLatency float64
	// PatternAware makes collectives pass their per-round communication
	// pattern to the transport, so the planner derates links occupied by
	// concurrent exchanges (§3's known-pattern optimization).
	PatternAware bool
}

// DefaultOptions returns V100-class defaults.
func DefaultOptions() Options {
	return Options{
		ReduceBandwidth: 150 * hw.GBps,
		CtrlLatency:     1.0e-6,
	}
}

// World is a fixed-size communicator whose ranks map one-to-one onto GPUs.
type World struct {
	ctx   *ucx.Context
	size  int
	opts  Options
	ranks []*Rank
	// matcher holds unmatched sends/receives per (src, dst, tag).
	sendQ map[matchKey][]*Request
	recvQ map[matchKey][]*Request
}

type matchKey struct {
	src, dst int
	tag      int
}

// NewWorld creates a communicator of the given size (≤ GPU count).
func NewWorld(ctx *ucx.Context, size int, opts Options) (*World, error) {
	if size < 1 || size > ctx.Runtime().DeviceCount() {
		return nil, fmt.Errorf("mpi: world size %d exceeds %d GPUs", size, ctx.Runtime().DeviceCount())
	}
	w := &World{
		ctx:   ctx,
		size:  size,
		opts:  opts,
		sendQ: make(map[matchKey][]*Request),
		recvQ: make(map[matchKey][]*Request),
	}
	for r := 0; r < size; r++ {
		rank := &Rank{world: w, rank: r, worker: ctx.NewWorker(r)}
		rank.eps = make([]*ucx.Endpoint, size)
		for peer := 0; peer < size; peer++ {
			if peer == r {
				continue
			}
			ep, err := rank.worker.Connect(peer)
			if err != nil {
				return nil, err
			}
			rank.eps[peer] = ep
		}
		w.ranks = append(w.ranks, rank)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Context returns the transport context.
func (w *World) Context() *ucx.Context { return w.ctx }

// Rank returns rank r's handle (for inspection; rank code receives its
// handle through Run).
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// Run spawns one simulated process per rank executing body and runs the
// simulation until all ranks finish. It returns the first rank error or
// simulator error.
func (w *World) Run(body func(p *sim.Proc, r *Rank) error) error {
	s := w.ctx.Runtime().Sim()
	done, firstErr := w.Spawn(body)
	if err := s.Run(); err != nil {
		return err
	}
	if !done.Fired() {
		return fmt.Errorf("mpi: ranks did not finish")
	}
	return firstErr()
}

// Spawn launches the rank processes without running the simulator —
// the composition hook for programs that coordinate several worlds (e.g.
// one per node of a cluster) on one shared simulator. The returned signal
// fires when every rank's body has returned; firstErr reports the first
// rank error once they have.
func (w *World) Spawn(body func(p *sim.Proc, r *Rank) error) (*sim.Signal, func() error) {
	s := w.ctx.Runtime().Sim()
	errs := make([]error, w.size)
	signals := make([]*sim.Signal, w.size)
	for i := 0; i < w.size; i++ {
		i := i
		signals[i] = s.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			errs[i] = body(p, w.ranks[i])
		})
	}
	all := sim.AllOf(s, signals...)
	return all, func() error {
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("mpi: rank %d: %w", i, err)
			}
		}
		return nil
	}
}

// Request is a non-blocking operation handle.
type Request struct {
	done  sim.Signal
	bytes float64
	key   matchKey
	// hint is the sender-side communication-pattern hint forwarded to the
	// transport when the transfer starts.
	hint [][2]int
	// A send matched to its receive holds the receive and the transport
	// request until the transfer completes both.
	peer *Request
	ureq *ucx.Request
}

// newRequest creates an unfired request on w's simulator.
func (w *World) newRequest(bytes float64, key matchKey, hint [][2]int) *Request {
	req := &Request{bytes: bytes, key: key, hint: hint}
	req.done.Init(w.sim())
	return req
}

// Done exposes the completion signal.
func (r *Request) Done() *sim.Signal { return &r.done }

// matched is the Handler form of a send request matched to its receive:
// it completes both when the transfer (or control message) lands.
type matched Request

func (m *matched) Handle(int) {
	sreq := (*Request)(m)
	rreq := sreq.peer
	var err error
	if sreq.ureq != nil {
		err = sreq.ureq.Done.Err()
	}
	sreq.peer, sreq.ureq = nil, nil
	if err != nil {
		sreq.done.Fail(err)
		rreq.done.Fail(err)
		return
	}
	sreq.done.Fire()
	rreq.done.Fire()
}

// Rank is the per-process MPI handle.
type Rank struct {
	world  *World
	rank   int
	worker *ucx.Worker
	eps    []*ucx.Endpoint
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.world.size }

// World returns the enclosing communicator.
func (r *Rank) World() *World { return r.world }

// Isend posts a non-blocking tagged send of the given byte count to dst.
// The transfer starts when the matching receive is posted (rendezvous).
func (r *Rank) Isend(dst int, bytes float64, tag int) (*Request, error) {
	return r.isend(dst, bytes, tag, nil)
}

// IsendHinted is Isend with a communication-pattern hint: the concurrent
// (src, dst) exchanges the transfer will share the machine with.
func (r *Rank) IsendHinted(dst int, bytes float64, tag int, hint [][2]int) (*Request, error) {
	return r.isend(dst, bytes, tag, hint)
}

func (r *Rank) isend(dst int, bytes float64, tag int, hint [][2]int) (*Request, error) {
	if err := r.checkPeer(dst); err != nil {
		return nil, err
	}
	w := r.world
	key := matchKey{src: r.rank, dst: dst, tag: tag}
	req := w.newRequest(bytes, key, hint)
	if q := w.recvQ[key]; len(q) > 0 {
		peer := q[0]
		w.recvQ[key] = q[1:]
		w.startTransfer(key, bytes, req, peer)
		return req, nil
	}
	w.sendQ[key] = append(w.sendQ[key], req)
	return req, nil
}

// Irecv posts a non-blocking tagged receive of the given byte count from
// src.
func (r *Rank) Irecv(src int, bytes float64, tag int) (*Request, error) {
	if err := r.checkPeer(src); err != nil {
		return nil, err
	}
	w := r.world
	key := matchKey{src: src, dst: r.rank, tag: tag}
	req := w.newRequest(bytes, key, nil)
	if q := w.sendQ[key]; len(q) > 0 {
		peer := q[0]
		w.sendQ[key] = q[1:]
		w.startTransfer(key, peer.bytes, peer, req)
		return req, nil
	}
	w.recvQ[key] = append(w.recvQ[key], req)
	return req, nil
}

func (r *Rank) checkPeer(peer int) error {
	if peer < 0 || peer >= r.world.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", peer, r.world.size)
	}
	if peer == r.rank {
		return fmt.Errorf("mpi: rank %d cannot message itself", r.rank)
	}
	return nil
}

func (w *World) sim() *sim.Simulator { return w.ctx.Runtime().Sim() }

// startTransfer launches the matched transfer from key.src to key.dst and
// fires both requests on completion. The byte count is taken from the
// send side; a mismatched (smaller) receive is a truncation error.
func (w *World) startTransfer(key matchKey, sendBytes float64, sreq, rreq *Request) {
	if rreq.bytes < sendBytes {
		err := fmt.Errorf("mpi: message truncated: send %v bytes, recv buffer %v (src %d dst %d tag %d)",
			sendBytes, rreq.bytes, key.src, key.dst, key.tag)
		sreq.done.Fail(err)
		rreq.done.Fail(err)
		return
	}
	if sendBytes <= 0 {
		// Control message: costs only latency.
		sreq.peer = rreq
		w.sim().ScheduleHandler(w.opts.CtrlLatency, (*matched)(sreq), 0)
		return
	}
	ep := w.ranks[key.src].eps[key.dst]
	ureq, err := ep.PutHinted(sendBytes, sreq.hint)
	if err != nil {
		sreq.done.Fail(err)
		rreq.done.Fail(err)
		return
	}
	sreq.peer, sreq.ureq = rreq, ureq
	ureq.Done.OnFireHandler((*matched)(sreq), 0)
}

// Wait blocks the rank's process until every request completes, returning
// the first error.
func (r *Rank) Wait(p *sim.Proc, reqs ...*Request) error {
	var first error
	for _, req := range reqs {
		if err := p.Wait(&req.done); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Send is a blocking send.
func (r *Rank) Send(p *sim.Proc, dst int, bytes float64, tag int) error {
	req, err := r.Isend(dst, bytes, tag)
	if err != nil {
		return err
	}
	return r.Wait(p, req)
}

// Recv is a blocking receive.
func (r *Rank) Recv(p *sim.Proc, src int, bytes float64, tag int) error {
	req, err := r.Irecv(src, bytes, tag)
	if err != nil {
		return err
	}
	return r.Wait(p, req)
}

// SendRecv posts both directions and waits for both — the building block
// of exchange-style collectives.
func (r *Rank) SendRecv(p *sim.Proc, peer int, sendBytes, recvBytes float64, tag int) error {
	return r.sendRecv(p, peer, sendBytes, recvBytes, tag, nil)
}

func (r *Rank) sendRecv(p *sim.Proc, peer int, sendBytes, recvBytes float64, tag int, hint [][2]int) error {
	sreq, err := r.isend(peer, sendBytes, tag, hint)
	if err != nil {
		return err
	}
	rreq, err := r.Irecv(peer, recvBytes, tag)
	if err != nil {
		return err
	}
	return r.Wait(p, sreq, rreq)
}

// compute charges on-GPU reduction time for combining bytes.
func (r *Rank) compute(p *sim.Proc, bytes float64) {
	bw := r.world.opts.ReduceBandwidth
	if bw <= 0 || bytes <= 0 {
		return
	}
	p.Sleep(bytes / bw)
}
