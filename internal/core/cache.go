package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
)

// Cache is the configuration memo of Algorithm 1 (lines 4-6) and of what
// is derived from a configuration one level down: core.Model caches its
// plans in one, and ucx.Context caches the compiled graph of each plan in
// another under the same key (Plan.Key). At steady state every transfer is
// a hit, so a hit is allocation-free and safe under concurrent traffic.
// The cache is sharded by key hash; each shard is an RWMutex-guarded map
// with a CLOCK ring bounding the number of retained values. Concurrent
// misses for the same key are merged (built-in singleflight): the first
// caller fills, later callers block on the entry's done channel and share
// the result.

const (
	// cacheShardCount spreads lock contention; must be a power of two.
	cacheShardCount = 16
	// DefaultCacheCapacity bounds retained plans when Options.CacheCapacity
	// is zero. Plans are small (a few hundred bytes); 4096 covers every
	// (path set, size class) pair any workload in the paper touches.
	DefaultCacheCapacity = 4096
)

// CacheStats counts configuration-cache behaviour (Algorithm 1 lines 4-6).
// Counters are cumulative across invalidations. The JSON tags are part of
// the serving wire contract (the snapshot served by mpserve's /v1/stats
// embeds this struct).
type CacheStats struct {
	// Hits are lookups served from a completed cached plan.
	Hits int64 `json:"hits"`
	// Misses are lookups that computed a new plan.
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by the CLOCK bound.
	Evictions int64 `json:"evictions"`
	// InflightMerges counts lookups that joined an in-flight computation
	// of the same key instead of recomputing it (singleflight).
	InflightMerges int64 `json:"inflight_merges"`
}

// cacheEntry is one cached value. Before the fill finishes, waiters block
// on done; after close(done) val/err are immutable (Put installs a new,
// already complete entry rather than writing over one, so its done is nil).
type cacheEntry[V any] struct {
	key      uint64
	val      V
	err      error
	done     chan struct{}
	computed bool        // guarded by the shard lock
	ref      atomic.Bool // CLOCK reference bit; set on hit under RLock
}

// cacheShard is one lock domain of a Cache.
type cacheShard[V any] struct {
	mu      sync.RWMutex
	entries map[uint64]*cacheEntry[V]
	// ring holds completed entries only (in-flight entries join it when
	// their fill publishes), so CLOCK never has to skip an entry that
	// cannot be evicted, and the map holds more entries than the ring
	// exactly when a fill is in flight.
	ring []*cacheEntry[V]
	hand int
	cap  int
}

// Cache is a concurrency-safe bounded memo from uint64 keys to values.
type Cache[V any] struct {
	shards  [cacheShardCount]cacheShard[V]
	release func(V)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	merges    atomic.Int64
}

// NewCache returns a cache retaining at most capacity values (0 or less
// means DefaultCacheCapacity; the floor is one value per shard). release,
// when non-nil, is called once for each value that leaves the cache —
// evicted by the bound, replaced by Put, or removed by DropIf — after the
// shard lock is let go.
func NewCache[V any](capacity int, release func(V)) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &Cache[V]{release: release}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*cacheEntry[V])
		c.shards[i].cap = (capacity + cacheShardCount - 1) / cacheShardCount
	}
	return c
}

// Get returns the value cached under key, computing it with fill on a
// miss. Concurrent misses for the same key run fill once and share its
// result. Failed fills are not cached.
func (c *Cache[V]) Get(key uint64, fill func() (V, error)) (V, error) {
	s := &c.shards[key&(cacheShardCount-1)]

	s.mu.RLock()
	e := s.entries[key]
	if e != nil && e.computed {
		v := e.val
		e.ref.Store(true)
		s.mu.RUnlock()
		c.hits.Add(1)
		return v, nil
	}
	s.mu.RUnlock()

	if e == nil {
		s.mu.Lock()
		if e = s.entries[key]; e == nil {
			e = &cacheEntry[V]{key: key, done: make(chan struct{})}
			s.entries[key] = e
			s.mu.Unlock()
			c.misses.Add(1)
			return c.fill(s, e, fill)
		}
		// Lost the upgrade race: someone else inserted between our
		// RUnlock and Lock.
		if e.computed {
			v := e.val
			e.ref.Store(true)
			s.mu.Unlock()
			c.hits.Add(1)
			return v, nil
		}
		s.mu.Unlock()
	}
	c.merges.Add(1)
	<-e.done // close happens-after e.val/e.err are published
	return e.val, e.err
}

// fill runs the computation for a freshly inserted entry and publishes it.
func (c *Cache[V]) fill(s *cacheShard[V], e *cacheEntry[V], fill func() (V, error)) (V, error) {
	v, err := fill()

	var victim *cacheEntry[V]
	s.mu.Lock()
	e.val, e.err = v, err
	e.computed = true
	// DropIf or Put may have taken the map slot while we were computing;
	// only publish into the ring if we still own it.
	if s.entries[e.key] == e {
		if err != nil {
			delete(s.entries, e.key)
		} else {
			victim = s.installLocked(e)
		}
	}
	s.mu.Unlock()
	close(e.done)
	if victim != nil {
		c.evictions.Add(1)
		c.releaseVal(victim.val)
	}
	return v, err
}

// installLocked adds a completed entry to the CLOCK ring. At capacity it
// evicts a victim and returns it for the caller to release outside the
// lock. The sweep ends within two passes: the first clears every
// reference bit, the second finds an unreferenced victim. Called with the
// shard write lock held.
func (s *cacheShard[V]) installLocked(e *cacheEntry[V]) *cacheEntry[V] {
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, e)
		return nil
	}
	for {
		v := s.ring[s.hand]
		if v.ref.Swap(false) {
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, v.key)
		s.ring[s.hand] = e
		s.hand = (s.hand + 1) % len(s.ring)
		return v
	}
}

// Put caches v under key and releases the value it displaces: the
// completed value cached under key, which v replaces in its CLOCK slot
// with its reference bit, or else the victim of the capacity bound. A
// fill in flight for key still answers its waiters but is not cached.
// v must not be the value already cached under key.
func (c *Cache[V]) Put(key uint64, v V) {
	s := &c.shards[key&(cacheShardCount-1)]
	ne := &cacheEntry[V]{key: key, val: v, computed: true}
	var old *cacheEntry[V]
	s.mu.Lock()
	if e := s.entries[key]; e != nil && e.computed {
		old = e
		ne.ref.Store(e.ref.Load())
		for i, r := range s.ring {
			if r == e {
				s.ring[i] = ne
				break
			}
		}
	} else if old = s.installLocked(ne); old != nil {
		c.evictions.Add(1)
	}
	s.entries[key] = ne
	s.mu.Unlock()
	if old != nil {
		c.releaseVal(old.val)
	}
}

// DropIf removes every completed value for which drop returns true, and
// every fill still in flight: its value cannot be inspected yet, so it
// answers its waiters but is not cached. It returns the number of entries
// removed. drop runs under a shard lock, so it must not call back into
// the cache. Removed values are released once every shard lock is let
// go, shard by shard and in CLOCK ring order within a shard, so the order
// is the same on every run.
func (c *Cache[V]) DropIf(drop func(V) bool) int {
	n := 0
	var dropped []V
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Only in-flight entries are missing from the ring, so the map is
		// walked only when one exists.
		if len(s.entries) > len(s.ring) {
			for key, e := range s.entries {
				if !e.computed {
					delete(s.entries, key)
					n++
				}
			}
		}
		keep := s.ring[:0]
		for _, e := range s.ring {
			if !drop(e.val) {
				keep = append(keep, e)
				continue
			}
			delete(s.entries, e.key)
			n++
			if c.release != nil {
				dropped = append(dropped, e.val)
			}
		}
		clear(s.ring[len(keep):])
		s.ring = keep
		if s.hand >= len(keep) {
			s.hand = 0
		}
		s.mu.Unlock()
	}
	for _, v := range dropped {
		c.release(v)
	}
	return n
}

func (c *Cache[V]) releaseVal(v V) {
	if c.release != nil {
		c.release(v)
	}
}

// Len counts retained (completed or in-flight) entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		InflightMerges: c.merges.Load(),
	}
}

// --- key hashing -----------------------------------------------------------

const fnvPrime = 0x100000001b3

// planKey hashes a candidate path set and message size to the compact
// cache key. Path order matters (Algorithm 1 initiates paths in order), so
// no canonicalization is applied. The size is hashed from its float bits —
// callers quantize first when size-class sharing is on.
func planKey(paths []hw.Path, n float64) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	h = (h ^ uint64(len(paths))) * fnvPrime
	for _, p := range paths {
		h = (h ^ packPath(p)) * fnvPrime
	}
	h = (h ^ math.Float64bits(n)) * fnvPrime
	return mix64(h)
}

// packPath packs one path per word: kind and the three (small) endpoint
// ids.
func packPath(p hw.Path) uint64 {
	return uint64(uint8(p.Kind))<<48 |
		uint64(uint16(p.Src))<<32 |
		uint64(uint16(p.Dst))<<16 |
		uint64(uint16(p.Via))
}

// mix64 is the splitmix64 finalizer: FNV alone mixes low bits poorly, and
// both the shard index and the map use them.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// quantizeSizeBits is the number of size-class subdivisions per power of
// two when Options.QuantizeSizes is on: 2^5 = 32 classes per octave, so a
// class representative under-states the true size by at most 1/32 ≈ 3.1%.
const quantizeSizeBits = 5

// quantizeSize floors a size to its class representative by keeping the
// top quantizeSizeBits bits of the float mantissa (UCX rendezvous-style
// bucketing: exponential octaves with linear sub-buckets).
func quantizeSize(n float64) float64 {
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return n
	}
	// Keeping the top (sign | exponent | 5 mantissa) bits truncates the
	// mantissa without touching the exponent.
	const mantissaBits = 52
	mask := ^(uint64(1)<<(mantissaBits-quantizeSizeBits) - 1)
	return math.Float64frombits(math.Float64bits(n) & mask)
}
