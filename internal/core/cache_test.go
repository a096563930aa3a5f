package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func clusterModel(t testing.TB, mk func() *hw.Spec, opts Options) (*hw.Spec, *Model) {
	t.Helper()
	spec := mk()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, NewModel(SpecSource{Node: node}, opts)
}

func pathsFor(t testing.TB, spec *hw.Spec, sel hw.PathSet) []hw.Path {
	t.Helper()
	paths, err := spec.EnumeratePaths(0, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestPlanKeyDistinguishesInputs pins down that the compact key separates
// every component it hashes: path kind, endpoints, staging device, order,
// and size.
func TestPlanKeyDistinguishesInputs(t *testing.T) {
	base := []hw.Path{
		{Kind: hw.Direct, Src: 0, Dst: 1},
		{Kind: hw.GPUStaged, Src: 0, Dst: 1, Via: 2},
	}
	n := 64.0 * hw.MiB
	ref := planKey(base, n)
	variants := map[string]uint64{
		"size":     planKey(base, n+256),
		"kind":     planKey([]hw.Path{{Kind: hw.HostStaged, Src: 0, Dst: 1}, base[1]}, n),
		"src":      planKey([]hw.Path{{Kind: hw.Direct, Src: 2, Dst: 1}, base[1]}, n),
		"dst":      planKey([]hw.Path{{Kind: hw.Direct, Src: 0, Dst: 3}, base[1]}, n),
		"via":      planKey([]hw.Path{base[0], {Kind: hw.GPUStaged, Src: 0, Dst: 1, Via: 3}}, n),
		"order":    planKey([]hw.Path{base[1], base[0]}, n),
		"truncate": planKey(base[:1], n),
	}
	for name, k := range variants {
		if k == ref {
			t.Errorf("variant %q collides with the reference key", name)
		}
	}
	if planKey(base, n) != ref {
		t.Error("planKey is not deterministic")
	}
}

func TestQuantizeSize(t *testing.T) {
	for _, n := range []float64{2 * hw.MiB, 3.7 * hw.MiB, 100 * hw.MiB, 512 * hw.MiB} {
		q := quantizeSize(n)
		if q > n {
			t.Errorf("quantizeSize(%g) = %g rounds up", n, q)
		}
		if q < n*(1-1.0/32) {
			t.Errorf("quantizeSize(%g) = %g understates by more than a size class", n, q)
		}
		if quantizeSize(q) != q {
			t.Errorf("quantizeSize not idempotent at %g", n)
		}
	}
	// Exact powers of two are their own class representative.
	if q := quantizeSize(64 * hw.MiB); q != 64*hw.MiB {
		t.Errorf("pow2 size moved to %g", q)
	}
}

// TestPlanCacheSingleflight forces G goroutines to miss on the same key at
// once and checks the plan is computed exactly once, with every other
// caller either merged into the in-flight computation or served a hit.
func TestPlanCacheSingleflight(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	src := &gatedSource{inner: SpecSource{Node: node}, gate: gate}
	m := NewModel(src, DefaultOptions())
	paths := pathsFor(t, spec, hw.ThreeGPUsWithHost)

	const G = 16
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.PlanTransfer(paths, 64*hw.MiB); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the first computation start and the rest pile up, then open the
	// gate.
	for src.entered.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if got := src.plans.Load(); got != 1 {
		t.Fatalf("plan computed %d times, want 1", got)
	}
	st := m.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.InflightMerges != G-1 {
		t.Fatalf("hits(%d) + merges(%d) != %d", st.Hits, st.InflightMerges, G-1)
	}
}

// gatedSource counts distinct plan computations (first-path param lookups)
// and blocks them until the gate opens.
type gatedSource struct {
	inner   ParamSource
	gate    chan struct{}
	entered atomic.Int64
	plans   atomic.Int64
}

func (s *gatedSource) PathParams(p hw.Path) (PathParam, error) {
	if p.Kind == hw.Direct {
		s.entered.Add(1)
		<-s.gate
		s.plans.Add(1)
	}
	return s.inner.PathParams(p)
}

// TestPlanCacheEviction checks the CLOCK bound: the cache never retains
// more than its capacity, evictions are accounted, and evicted plans are
// recomputed (a subsequent lookup is a miss, not a stale hit).
func TestPlanCacheEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheCapacity = 32
	spec, m := clusterModel(t, hw.Beluga, opts)
	paths := pathsFor(t, spec, hw.ThreeGPUs)

	const distinct = 200
	for i := 0; i < distinct; i++ {
		if _, err := m.PlanTransfer(paths, float64(2*hw.MiB+i*4096)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want %d", st.Misses, distinct)
	}
	if got := m.CachedPlans(); got > 32 {
		t.Fatalf("cache retains %d plans, capacity 32", got)
	}
	// Every plan was installed; all but the retained ones were evicted.
	if want := int64(distinct - m.CachedPlans()); st.Evictions != want {
		t.Fatalf("evictions = %d, want %d", st.Evictions, want)
	}
}

// TestPlanCacheClockKeepsHotEntries checks the reference bit: an entry hit
// between insertions survives sweeps that evict cold entries around it.
func TestPlanCacheClockKeepsHotEntries(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheCapacity = 16 // one entry per shard
	spec, m := clusterModel(t, hw.Beluga, opts)
	paths := pathsFor(t, spec, hw.ThreeGPUs)

	hot := 64.0 * hw.MiB
	if _, err := m.PlanTransfer(paths, hot); err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 400; i++ {
		// Re-reference the hot key, then insert a cold one.
		before := m.Stats().Misses
		if _, err := m.PlanTransfer(paths, hot); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Misses != before {
			misses++
		}
		if _, err := m.PlanTransfer(paths, float64(2*hw.MiB+i*8192)); err != nil {
			t.Fatal(err)
		}
	}
	// With a random-replacement cache the hot key would be evicted
	// constantly; CLOCK's second chance must keep it resident almost
	// always (cold keys hashing into the same shard can still push it out
	// when the shard holds a single entry).
	if misses > 40 {
		t.Fatalf("hot key recomputed %d/400 times despite reference bit", misses)
	}
}

// TestPlanCacheConcurrentStress hammers one model from many goroutines
// with overlapping hot keys, goroutine-private cold keys, and concurrent
// invalidations, then checks the accounting identity and result sanity.
// Run under -race this is the planner's thread-safety gate.
func TestPlanCacheConcurrentStress(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheCapacity = 64
	spec, m := clusterModel(t, hw.Beluga, opts)
	keysets := [][]hw.Path{
		pathsFor(t, spec, hw.TwoGPUs),
		pathsFor(t, spec, hw.ThreeGPUs),
		pathsFor(t, spec, hw.ThreeGPUsWithHost),
	}
	hot := []float64{2 * hw.MiB, 8 * hw.MiB, 64 * hw.MiB, 512 * hw.MiB}

	const (
		G   = 12
		ops = 3000
	)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				paths := keysets[(g+op)%len(keysets)]
				n := hot[op%len(hot)]
				if op%7 == 0 {
					// Goroutine-private key: exercises miss + eviction.
					n = float64(2*hw.MiB + (g*ops+op)*512)
				}
				pl, err := m.PlanTransfer(paths, n)
				if err != nil {
					t.Error(err)
					return
				}
				if pl.Bytes != n || len(pl.Paths) != len(paths) || pl.PredictedBandwidth <= 0 {
					t.Errorf("inconsistent plan for n=%g: %+v", n, pl)
					return
				}
				if op%1000 == 999 && g == 0 {
					m.InvalidateCache()
				}
			}
		}(g)
	}
	wg.Wait()

	st := m.Stats()
	if total := st.Hits + st.Misses + st.InflightMerges; total != G*ops {
		t.Fatalf("hits+misses+merges = %d, want %d (stats lost updates)", total, G*ops)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("degenerate stress mix: %+v", st)
	}
}

// TestCacheEvictionReleasesVictimOnce fills one shard past its bound of
// one value: every fill after the first evicts its predecessor, which is
// released exactly once, and the survivor is not released at all.
func TestCacheEvictionReleasesVictimOnce(t *testing.T) {
	released := map[int]int{}
	c := NewCache(cacheShardCount, func(v int) { released[v]++ })
	for i := 0; i < 5; i++ {
		key := uint64(i)<<4 | 3 // every key lands in shard 3
		if v, err := c.Get(key, func() (int, error) { return i, nil }); err != nil || v != i {
			t.Fatalf("fill %d: got (%d, %v)", i, v, err)
		}
	}
	if want := map[int]int{0: 1, 1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(released, want) {
		t.Fatalf("released %v, want %v", released, want)
	}
	if c.Len() != 1 || c.Stats().Evictions != 4 {
		t.Fatalf("len %d, stats %+v; want 1 value and 4 evictions", c.Len(), c.Stats())
	}
}

// TestCachePutReleasesReplacedOnce checks that Put over a completed value
// releases the old value exactly once and serves the new one as a hit,
// and that a Put of a new key into a full shard releases its victim once.
func TestCachePutReleasesReplacedOnce(t *testing.T) {
	released := map[int]int{}
	c := NewCache(cacheShardCount, func(v int) { released[v]++ })
	noFill := func() (int, error) {
		t.Fatal("unexpected fill")
		return 0, nil
	}
	if _, err := c.Get(3, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Put(3, 2)
	if want := map[int]int{1: 1}; !reflect.DeepEqual(released, want) {
		t.Fatalf("after Put: released %v, want %v", released, want)
	}
	if v, _ := c.Get(3, noFill); v != 2 {
		t.Fatalf("Get after Put = %d, want 2", v)
	}
	c.Put(3, 3)
	c.Put(19, 4) // shard 3 is full: the value under key 3 is the victim
	if want := map[int]int{1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(released, want) {
		t.Fatalf("after evicting Put: released %v, want %v", released, want)
	}
	if v, _ := c.Get(19, noFill); v != 4 {
		t.Fatalf("Get of the put key = %d, want 4", v)
	}
	if st := c.Stats(); c.Len() != 1 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("len %d, stats %+v; want 1 value, 1 eviction, 2 hits, 1 miss", c.Len(), st)
	}
}

// TestCacheDropIfReleasesInRingOrder checks that DropIf releases each
// dropped value exactly once, shard by shard in insertion (CLOCK ring)
// order rather than key or map order, and that undropped values keep
// hitting.
func TestCacheDropIfReleasesInRingOrder(t *testing.T) {
	var released []int
	c := NewCache(DefaultCacheCapacity, func(v int) { released = append(released, v) })
	const n = 100
	key := func(i int) uint64 { return uint64(i * 7919 % 1000) } // distinct, unsorted
	for i := 0; i < n; i++ {
		if _, err := c.Get(key(i), func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var want []int
	for shard := uint64(0); shard < cacheShardCount; shard++ {
		for i := 0; i < n; i++ {
			if key(i)&(cacheShardCount-1) == shard && i%3 == 0 {
				want = append(want, i)
			}
		}
	}
	if got := c.DropIf(func(v int) bool { return v%3 == 0 }); got != len(want) {
		t.Fatalf("DropIf removed %d, want %d", got, len(want))
	}
	if !reflect.DeepEqual(released, want) {
		t.Fatalf("release order %v, want %v", released, want)
	}
	if c.Len() != n-len(want) {
		t.Fatalf("len %d, want %d", c.Len(), n-len(want))
	}
	for i := 1; i < n; i += 3 {
		if v, _ := c.Get(key(i), func() (int, error) { return -1, nil }); v != i {
			t.Fatalf("survivor %d answered %d", i, v)
		}
	}
	if misses := c.Stats().Misses; misses != n {
		t.Fatalf("survivors refilled: %d misses, want %d", misses, n)
	}
}

// TestCacheDropIfKeepsSurvivors drops the cached plans toward one
// destination and checks that the others are kept and still hit.
func TestCacheDropIfKeepsSurvivors(t *testing.T) {
	src := &obsParamSource{}
	m := NewModel(src, DefaultOptions())
	paths01 := obsPaths()
	paths02 := []hw.Path{
		{Kind: hw.Direct, Src: 0, Dst: 2},
		{Kind: hw.GPUStaged, Src: 0, Dst: 2, Via: 1},
	}
	for _, n := range []float64{1 * hw.MiB, 4 * hw.MiB, 16 * hw.MiB} {
		if _, err := m.PlanTransfer(paths01, n); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PlanTransfer(paths02, n); err != nil {
			t.Fatal(err)
		}
	}
	if m.CachedPlans() != 6 {
		t.Fatalf("cached = %d, want 6", m.CachedPlans())
	}
	if n := m.cache.DropIf(func(pl *Plan) bool { return pl.Dst == 2 }); n != 3 {
		t.Fatalf("DropIf removed %d plans, want 3", n)
	}
	if m.CachedPlans() != 3 {
		t.Fatalf("after DropIf cached = %d, want 3", m.CachedPlans())
	}
	before := m.Stats().Hits
	if _, err := m.PlanTransfer(paths01, 1*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Hits != before+1 {
		t.Fatal("surviving plan did not hit")
	}
}

// TestCacheDropIfInFlightFill drops a key whose fill is still running:
// the fill answers its own caller and a merged waiter, is neither
// released nor re-cached, and the next lookup fills afresh.
func TestCacheDropIfInFlightFill(t *testing.T) {
	var released atomic.Int64
	c := NewCache(DefaultCacheCapacity, func(int) { released.Add(1) })
	entered, gate := make(chan struct{}), make(chan struct{})
	got := make(chan int, 2)
	go func() {
		v, _ := c.Get(1, func() (int, error) {
			close(entered)
			<-gate
			return 7, nil
		})
		got <- v
	}()
	<-entered
	go func() {
		v, _ := c.Get(1, func() (int, error) { return -1, nil })
		got <- v
	}()
	for c.Stats().InflightMerges == 0 {
		runtime.Gosched()
	}
	if n := c.DropIf(func(int) bool { return false }); n != 1 {
		t.Fatalf("DropIf removed %d entries, want the in-flight one", n)
	}
	close(gate)
	if a, b := <-got, <-got; a != 7 || b != 7 {
		t.Fatalf("fill and waiter got %d and %d, want 7", a, b)
	}
	if c.Len() != 0 || released.Load() != 0 {
		t.Fatalf("len %d, %d released; the dropped fill must be neither cached nor released",
			c.Len(), released.Load())
	}
	if v, _ := c.Get(1, func() (int, error) { return 8, nil }); v != 8 || c.Stats().Misses != 2 {
		t.Fatalf("lookup after the drop got %d with stats %+v, want a fresh fill", v, c.Stats())
	}
}

// TestQuantizedPlansNearExact is the property test for size-class
// sharing: across the paper's 2 MB–512 MB range on both cluster specs, a
// quantized plan's predicted bandwidth stays within 2% of the exact
// plan's, and its byte shares still sum to the exact transfer size.
func TestQuantizedPlansNearExact(t *testing.T) {
	for name, mk := range map[string]func() *hw.Spec{"beluga": hw.Beluga, "narval": hw.Narval} {
		t.Run(name, func(t *testing.T) {
			spec := mk()
			node, err := hw.Build(sim.New(), spec)
			if err != nil {
				t.Fatal(err)
			}
			exact := NewModel(SpecSource{Node: node}, DefaultOptions())
			qOpts := DefaultOptions()
			qOpts.QuantizeSizes = true
			quant := NewModel(SpecSource{Node: node}, qOpts)

			rng := rand.New(rand.NewSource(7))
			distinctClasses := 0
			for _, sel := range []hw.PathSet{hw.TwoGPUs, hw.ThreeGPUs, hw.ThreeGPUsWithHost} {
				paths := pathsFor(t, spec, sel)
				classes := make(map[float64]bool)
				for trial := 0; trial < 150; trial++ {
					// Log-uniform over the paper's sweep range.
					lo, hi := math.Log(2*hw.MiB), math.Log(512*hw.MiB)
					n := math.Floor(math.Exp(lo + rng.Float64()*(hi-lo)))
					classes[quantizeSize(n)] = true
					pe, err := exact.PlanTransfer(paths, n)
					if err != nil {
						t.Fatal(err)
					}
					pq, err := quant.PlanTransfer(paths, n)
					if err != nil {
						t.Fatal(err)
					}
					var sum float64
					for _, pp := range pq.Paths {
						sum += pp.Bytes
					}
					if sum != n {
						t.Fatalf("quantized shares sum to %g, want %g", sum, n)
					}
					rel := math.Abs(pq.PredictedBandwidth-pe.PredictedBandwidth) / pe.PredictedBandwidth
					if rel > 0.02 {
						t.Fatalf("n=%.0f: quantized bandwidth %.4g vs exact %.4g (%.2f%% off)",
							n, pq.PredictedBandwidth, pe.PredictedBandwidth, rel*100)
					}
				}
				distinctClasses += len(classes)
			}
			// Sharing must be exact: one solver run per distinct
			// (path set, size class), never one per distinct size.
			st := quant.Stats()
			if st.Misses != int64(distinctClasses) {
				t.Fatalf("quantized model missed %d times, want one per class (%d)",
					st.Misses, distinctClasses)
			}
		})
	}
}

// TestQuantizedPow2SizesExact pins that power-of-two sizes — the paper's
// entire measurement grid — are their own size class, so quantization
// cannot perturb the published tables even when enabled.
func TestQuantizedPow2SizesExact(t *testing.T) {
	spec := hw.Beluga()
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewModel(SpecSource{Node: node}, DefaultOptions())
	qOpts := DefaultOptions()
	qOpts.QuantizeSizes = true
	quant := NewModel(SpecSource{Node: node}, qOpts)
	paths := pathsFor(t, spec, hw.ThreeGPUsWithHost)
	for n := 2 * hw.MiB; n <= 512*hw.MiB; n *= 2 {
		pe, err := exact.PlanTransfer(paths, float64(n))
		if err != nil {
			t.Fatal(err)
		}
		pq, err := quant.PlanTransfer(paths, float64(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := range pe.Paths {
			if pe.Paths[i].Bytes != pq.Paths[i].Bytes || pe.Paths[i].Chunks != pq.Paths[i].Chunks {
				t.Fatalf("n=%d path %d: quantized plan diverged", n, i)
			}
		}
		if pe.PredictedTime != pq.PredictedTime {
			t.Fatalf("n=%d: predicted time diverged", n)
		}
	}
}
