// Sharded (parallel) discrete-event simulation with conservative
// synchronization and a deterministic merge.
//
// A Cluster couples several Simulators — shards — into one virtual-time
// domain. Each shard owns its own event queue, event arena, and clock,
// and is only ever touched by one goroutine at a time, so everything the
// sequential kernel guarantees (determinism, pooled zero-alloc
// scheduling, handle-generation ABA safety) holds per shard unchanged.
//
// Shards interact only through Post, which schedules an event on another
// shard after a delay of at least the cluster lookahead — the minimum
// latency of any declared cross-shard channel. That bound makes the
// classic conservative-synchronization window safe: if the earliest
// pending event anywhere is at time T, no cross-shard event can arrive
// before T+lookahead, so every shard may advance independently (in
// parallel) through the epoch [T, T+lookahead) without ever receiving a
// message in its past. At the epoch barrier the buffered cross-shard
// events are merged and delivered in the global order
//
//	(timestamp, source shard ID, source sequence)
//
// so same-instant events from different shards are released in a fixed,
// run-independent order: the merged schedule — and therefore every
// simulation observable — is byte-identical whether epochs execute on one
// goroutine or many, and for any worker count.
//
// A cluster with a single shard (or one whose shards never interact)
// degenerates to the sequential engine: Run dispatches straight into the
// shard's own loop with no epoch machinery on the hot path.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

// remoteEvent is one cross-shard event buffered in a source shard's
// outbox until the next epoch barrier.
type remoteEvent struct {
	at  Time
	dst int
	seq uint64 // source-shard sequence; with (at, src) a total order
	fn  func()
}

// mergedEvent is a remoteEvent tagged with its source shard during the
// barrier merge.
type mergedEvent struct {
	remoteEvent
	src int
}

// Epoch describes one completed synchronization window, passed to the
// OnEpoch hook from the coordinator (single-threaded, deterministic).
type Epoch struct {
	// Index is the epoch number, starting at 0.
	Index int
	// Start is the earliest pending timestamp when the epoch began; the
	// window covered [Start, Horizon).
	Start Time
	// Horizon is the exclusive upper bound shards ran to. The final epoch
	// of an interaction-free cluster has Horizon = +Inf.
	Horizon Time
	// Delivered is the number of cross-shard events merged at the barrier
	// that closed this epoch.
	Delivered int
	// ShardNow and ShardEvents give each shard's clock and the number of
	// events it executed during the epoch, indexed by shard ID.
	ShardNow    []Time
	ShardEvents []uint64
}

// Cluster runs a set of shards under conservative epoch synchronization.
// Build it with NewCluster, wire cross-shard channels with Connect, then
// drive it like a Simulator with Run/RunUntil. Methods on a Cluster must
// be called from a single goroutine (the one that calls Run).
type Cluster struct {
	shards    []*Simulator
	lookahead float64 // min latency over declared channels; +Inf with none
	workers   int
	pool      *par.EpochPool
	onEpoch   func(Epoch)
	epoch     int
	stopped   bool
	err       error

	merge []mergedEvent // reusable scratch for the barrier merge
	prevN []uint64      // per-shard executed counts at last epoch start
}

// NewCluster creates a cluster of n shards, each an empty Simulator with
// its clock at zero. Shard IDs are 0..n-1. With workers <= 1 epochs run
// sequentially (shard 0 first); with workers > 1 each epoch fans the
// shards across that many OS threads. Output is byte-identical either
// way.
func NewCluster(n, workers int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("sim: cluster needs at least 1 shard, got %d", n))
	}
	c := &Cluster{
		lookahead: math.Inf(1),
		workers:   workers,
		prevN:     make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		s := New()
		s.cluster = c
		s.shard = i
		c.shards = append(c.shards, s)
	}
	return c
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns the i-th shard's simulator. Simulation state reachable
// from one shard's callbacks must never be touched from another shard —
// during a parallel epoch the shards run on different OS threads.
func (c *Cluster) Shard(i int) *Simulator { return c.shards[i] }

// Lookahead returns the current conservative window: the minimum latency
// over declared channels, +Inf when no channels exist.
func (c *Cluster) Lookahead() float64 { return c.lookahead }

// Connect declares a cross-shard channel from shard src to shard dst with
// the given minimum latency (seconds, must be positive and finite). The
// cluster lookahead is the minimum latency over all declared channels;
// Post enforces it. Declaring a channel twice keeps the smaller latency.
func (c *Cluster) Connect(src, dst int, latency float64) {
	if src < 0 || src >= len(c.shards) || dst < 0 || dst >= len(c.shards) {
		panic(fmt.Sprintf("sim: Connect shard out of range: %d->%d of %d", src, dst, len(c.shards)))
	}
	if src == dst {
		panic("sim: Connect requires distinct shards")
	}
	if latency <= 0 || math.IsNaN(latency) || math.IsInf(latency, 0) {
		panic(fmt.Sprintf("sim: channel latency must be positive and finite, got %v", latency))
	}
	if latency < c.lookahead {
		c.lookahead = latency
	}
}

// SetWorkers changes the epoch parallelism (before or between runs).
func (c *Cluster) SetWorkers(workers int) {
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	c.workers = workers
}

// OnEpoch registers a hook invoked after every epoch barrier with the
// completed window's description. The hook runs on the coordinating
// goroutine with all shards quiescent, so it may read any shard state; it
// is invoked at the same points with the same arguments for every worker
// count.
func (c *Cluster) OnEpoch(fn func(Epoch)) { c.onEpoch = fn }

// Post schedules fn on dst after delay units of s's virtual time. It is
// the only legal way to schedule across shards: the event is buffered in
// s's outbox and delivered at the next epoch barrier, ordered against all
// other cross-shard events by (time, source shard, sequence). The delay
// must be at least the cluster lookahead (posting with a smaller delay
// would let an event land in a window another shard has already
// simulated past — the conservative contract would be violated — so Post
// panics). Posting to s's own shard is an ordinary Schedule.
func (s *Simulator) Post(dst *Simulator, delay Duration, fn func()) {
	if dst == s {
		s.Schedule(delay, fn)
		return
	}
	c := s.cluster
	if c == nil || dst.cluster != c {
		panic("sim: Post requires both shards in one cluster")
	}
	if math.IsNaN(delay) || delay < c.lookahead {
		panic(fmt.Sprintf("sim: Post delay %v below cluster lookahead %v (declare a faster channel with Connect)",
			delay, c.lookahead))
	}
	s.outbox = append(s.outbox, remoteEvent{at: s.now + delay, dst: dst.shard, seq: s.xseq, fn: fn})
	s.xseq++
}

// Err returns the first error recorded during a cluster run, if any.
func (c *Cluster) Err() error { return c.err }

// Stop makes Run return after the epoch in progress completes.
func (c *Cluster) Stop() { c.stopped = true }

// Run executes all shards until every queue and outbox drains, Stop is
// called, or an error occurs. Like Simulator.Run it returns ErrDeadlock
// when live processes remain blocked with no pending events anywhere.
func (c *Cluster) Run() error {
	return c.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= limit across all shards.
func (c *Cluster) RunUntil(limit Time) error {
	c.stopped = false
	for !c.stopped && c.err == nil {
		delivered := c.deliver()
		tmin := math.Inf(1)
		for _, s := range c.shards {
			if t, ok := s.NextEventTime(); ok && t < tmin {
				tmin = t
			}
		}
		if math.IsInf(tmin, 1) {
			// Nothing pending anywhere and all outboxes drained: done, or a
			// cluster-wide deadlock if live processes remain blocked.
			procs := 0
			for _, s := range c.shards {
				procs += s.procs
			}
			if procs > 0 {
				c.fail(fmt.Errorf("%w (%d live processes across %d shards)", ErrDeadlock, procs, len(c.shards)))
			}
			return c.err
		}
		if tmin > limit {
			// Leave remaining events for a later call; advance clocks like
			// the sequential engine does when it peeks past the limit.
			for _, s := range c.shards {
				if _, ok := s.NextEventTime(); ok && s.now < limit {
					s.now = limit
				}
			}
			return c.err
		}
		horizon := tmin + c.lookahead
		inclusive := false
		if horizon > limit {
			// The window is capped by the caller's limit; events exactly at
			// the limit must run (RunUntil is inclusive). Cross-shard posts
			// from this window land at >= tmin+lookahead > limit, so none
			// can be missed.
			horizon = limit
			inclusive = true
		}
		c.runEpoch(horizon, inclusive)
		for _, s := range c.shards {
			if s.err != nil {
				c.fail(s.err)
				break
			}
			if s.stopped {
				c.stopped = true
			}
		}
		c.epoch++
		if c.onEpoch != nil {
			c.onEpoch(c.epochInfo(tmin, horizon, delivered))
		}
	}
	return c.err
}

// runEpoch advances every shard through one window, in parallel when the
// cluster has more than one worker. Shards share no state, so the only
// synchronization is the barrier at the end of the round.
func (c *Cluster) runEpoch(horizon Time, inclusive bool) {
	n := len(c.shards)
	w := c.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, s := range c.shards {
			// Errors are collected by the caller in shard order.
			_ = s.runLimit(horizon, inclusive)
		}
		return
	}
	if c.pool == nil {
		c.pool = par.NewEpochPool(w)
	}
	c.pool.Round(func(worker int) {
		for i := worker; i < n; i += w {
			_ = c.shards[i].runLimit(horizon, inclusive)
		}
	})
}

// deliver merges every shard's outbox and schedules the events on their
// destination shards in (time, source shard, sequence) order — the
// deterministic release order for same-instant cross-shard events. It
// returns the number of events delivered. Runs on the coordinator with
// all shards quiescent.
func (c *Cluster) deliver() int {
	c.merge = c.merge[:0]
	for src, s := range c.shards {
		for _, re := range s.outbox {
			c.merge = append(c.merge, mergedEvent{remoteEvent: re, src: src})
		}
		s.outbox = s.outbox[:0]
	}
	if len(c.merge) == 0 {
		return 0
	}
	sort.Slice(c.merge, func(i, j int) bool {
		a, b := c.merge[i], c.merge[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range c.merge {
		me := &c.merge[i]
		c.shards[me.dst].At(me.at, me.fn)
		me.fn = nil // release the closure; the scratch slice is reused
	}
	return len(c.merge)
}

// epochInfo snapshots per-shard progress for the OnEpoch hook.
func (c *Cluster) epochInfo(start, horizon Time, delivered int) Epoch {
	ep := Epoch{
		Index:       c.epoch - 1,
		Start:       start,
		Horizon:     horizon,
		Delivered:   delivered,
		ShardNow:    make([]Time, len(c.shards)),
		ShardEvents: make([]uint64, len(c.shards)),
	}
	for i, s := range c.shards {
		ep.ShardNow[i] = s.now
		ep.ShardEvents[i] = s.executed - c.prevN[i]
		c.prevN[i] = s.executed
	}
	return ep
}

// fail records the first error.
func (c *Cluster) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// Close releases the cluster's worker pool (idempotent; the cluster can
// still run afterwards — the pool is rebuilt on demand).
func (c *Cluster) Close() {
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
}
