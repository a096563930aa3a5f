package ucx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func graphsConfig() Config {
	cfg := DefaultConfig()
	cfg.GraphsEnable = true
	return cfg
}

func TestGraphsWarmPutHashToReplay(t *testing.T) {
	s, ctx := newCtx(t, graphsConfig())
	ep := endpoint(t, ctx, 0, 1)

	put := func() {
		t.Helper()
		req, err := ep.Put(64 * hw.MiB)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if err := req.Done.Err(); err != nil {
			t.Fatal(err)
		}
	}

	put()
	st := ctx.GraphStats()
	if st.Misses != 1 || st.Compiles != 1 || st.Replays != 1 {
		t.Fatalf("cold put: %+v, want 1 miss / 1 compile / 1 replay", st)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count = %d, want 1", ctx.GraphCount())
	}

	// Warm put: the plan cache returns the identical plan, so the graph
	// path is hash → hit → replay, with no compile and no patch.
	put()
	st = ctx.GraphStats()
	if st.Hits != 1 || st.Compiles != 1 || st.Replays != 2 || st.Patches != 0 {
		t.Fatalf("warm put: %+v, want 1 hit / 1 compile / 2 replays / 0 patches", st)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count after warm put = %d, want 1", ctx.GraphCount())
	}
}

func TestGraphsDisabledNoActivity(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st != (GraphStats{}) {
		t.Fatalf("graphs disabled but stats = %+v", st)
	}
	if ctx.GraphCount() != 0 {
		t.Fatalf("graphs disabled but %d graphs retained", ctx.GraphCount())
	}
}

func TestGraphsFaultInvalidatesAll(t *testing.T) {
	s, ctx := newCtx(t, graphsConfig())
	ep := endpoint(t, ctx, 0, 1)
	if _, err := ep.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count = %d, want 1", ctx.GraphCount())
	}

	ctx.NotifyFault()
	if ctx.GraphCount() != 0 {
		t.Fatalf("fault left %d graphs cached", ctx.GraphCount())
	}
	st := ctx.GraphStats()
	if st.Invalidations < 1 {
		t.Fatalf("invalidations = %d, want ≥ 1", st.Invalidations)
	}

	// The next put re-plans and recompiles.
	if _, err := ep.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Compiles < 2 {
		t.Fatalf("compiles after fault = %d, want ≥ 2", st.Compiles)
	}
}

func TestGraphsFailoverInvalidatesExactlyAffected(t *testing.T) {
	// Two independent transfers cache two graphs; excluding a path used
	// only by the first must drop exactly that graph.
	s, ctx := newCtx(t, graphsConfig())
	epA := endpoint(t, ctx, 0, 1)
	epB := endpoint(t, ctx, 2, 3)
	for _, ep := range []*Endpoint{epA, epB} {
		if _, err := ep.Put(64 * hw.MiB); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.GraphCount() != 2 {
		t.Fatalf("graph count = %d, want 2", ctx.GraphCount())
	}

	ctx.invalidateGraphsFor(map[hw.Path]bool{
		{Kind: hw.Direct, Src: 0, Dst: 1}: true,
	})
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count after exclusion = %d, want 1", ctx.GraphCount())
	}
	if st := ctx.GraphStats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want exactly 1", st.Invalidations)
	}

	// The untouched pair replays warm; the excluded pair recompiles.
	before := ctx.GraphStats()
	if _, err := epB.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Hits != before.Hits+1 || st.Compiles != before.Compiles {
		t.Fatalf("unaffected pair not served warm: before %+v after %+v", before, st)
	}
	if _, err := epA.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Compiles != before.Compiles+1 {
		t.Fatalf("excluded pair not recompiled: before %+v after %+v", before, st)
	}
}

func TestGraphsFailoverTransferSurvives(t *testing.T) {
	// A staging link dies mid-transfer with graphs enabled: the transfer
	// must still complete (graph failures fall back to eager execution,
	// failover re-plans), and the failover must invalidate cached graphs
	// routing over the dead link.
	cfg := graphsConfig()
	s, node, ctx := newFaultCtx(t, hw.Narval(), cfg)
	failAt(t, s, node, hw.NVLinkRef(0, 2), 100e-6)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatalf("transfer failed despite failover: %v", err)
	}
	if req.Failovers < 1 {
		t.Fatalf("failovers = %d, want ≥ 1", req.Failovers)
	}
	st := ctx.GraphStats()
	if st.Invalidations < 1 {
		t.Fatalf("failover did not invalidate graphs: %+v", st)
	}
	for _, pp := range req.Plan.ActivePaths() {
		if pp.Path.Kind == hw.GPUStaged && pp.Path.Via == 2 {
			t.Fatalf("final plan still uses failed staging GPU 2: %+v", pp.Path)
		}
	}
}

func TestGraphsAdaptiveFeederPatches(t *testing.T) {
	// The adaptive executor's pool chunks repeat the same path structure
	// with (mostly) the same byte counts, so after the first chunk the
	// feeder's private graph is patched in place, not recompiled.
	cfg := graphsConfig()
	cfg.AdaptSegments = 8
	cfg.AdaptMinBytes = 4 * hw.MiB
	s, _, ctx := newFaultCtx(t, hw.Narval(), cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatal(err)
	}
	st := ctx.GraphStats()
	if st.Replays < 2 {
		t.Fatalf("adaptive run replayed %d graphs, want ≥ 2", st.Replays)
	}
	if st.Patches < 1 {
		t.Fatalf("adaptive run patched %d graphs, want ≥ 1 (stats %+v)", st.Patches, st)
	}
}

// directCompiled builds a minimal real compiled plan (direct path, no
// staging memory) for cache-mechanics tests.
func directCompiled(t *testing.T, eng *pipeline.Engine, bytes float64) *pipeline.CompiledPlan {
	t.Helper()
	p := hw.Path{Kind: hw.Direct, Src: 0, Dst: 1}
	pl := &core.Plan{Src: 0, Dst: 1, Bytes: bytes, Paths: []core.PathPlan{{
		Path:   p,
		Param:  core.PathParam{Path: p, Legs: []core.LinkParam{{Alpha: 0, Beta: 100}}},
		Bytes:  bytes,
		Chunks: 1,
	}}}
	cp, err := eng.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func testEngine(t *testing.T) *pipeline.Engine {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(cuda.NewRuntime(node), pipeline.DefaultConfig())
}

func TestGraphCacheSingleflightRace(t *testing.T) {
	// Concurrent misses for the same key must instantiate exactly once.
	// The compile funcs return precompiled plans so goroutines never touch
	// the (single-threaded) simulator.
	eng := testEngine(t)
	const keys = 8
	const workers = 16
	const iters = 200
	plans := make([]*pipeline.CompiledPlan, keys)
	for i := range plans {
		plans[i] = directCompiled(t, eng, float64((i+1))*hw.MiB)
	}
	cache := core.NewCache(graphCacheCapacity, (*pipeline.CompiledPlan).Release)
	var compiles [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := i % keys
				cp, err := cache.Get(uint64(k), func() (*pipeline.CompiledPlan, error) {
					compiles[k].Add(1)
					return plans[k], nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if cp != plans[k] {
					t.Errorf("key %d returned wrong plan", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range compiles {
		if n := compiles[k].Load(); n != 1 {
			t.Errorf("key %d compiled %d times, want exactly 1", k, n)
		}
	}
	st := cache.Stats()
	if st.Misses != keys {
		t.Errorf("misses = %d, want %d", st.Misses, keys)
	}
	if got, want := st.Hits+st.InflightMerges, int64(workers*iters-keys); got != want {
		t.Errorf("hits+merges = %d, want %d", got, want)
	}
}

func TestGraphCacheErrorNotCached(t *testing.T) {
	eng := testEngine(t)
	cache := core.NewCache(graphCacheCapacity, (*pipeline.CompiledPlan).Release)
	boom := fmt.Errorf("compile exploded")
	if _, err := cache.Get(42, func() (*pipeline.CompiledPlan, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if cache.Len() != 0 {
		t.Fatal("failed compilation was cached")
	}
	want := directCompiled(t, eng, hw.MiB)
	got, err := cache.Get(42, func() (*pipeline.CompiledPlan, error) {
		return want, nil
	})
	if err != nil || got != want {
		t.Fatalf("retry after failure: got %v, %v", got, err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (failure not cached)", st.Misses)
	}
}

// stagedPlan is a plan from GPU 0 to GPU 1 over the direct path and a
// path staged through GPU 2 that carries staged of the bytes in chunks
// chunks. With staged = 0 the staged path is idle and the compiled graph
// holds no staging memory, but the plan keeps its key (paths and bytes).
func stagedPlan(bytes, staged float64, chunks int) *core.Plan {
	direct := hw.Path{Kind: hw.Direct, Src: 0, Dst: 1}
	via := hw.Path{Kind: hw.GPUStaged, Src: 0, Dst: 1, Via: 2}
	leg := core.LinkParam{Alpha: 0, Beta: 100}
	return &core.Plan{Src: 0, Dst: 1, Bytes: bytes, Paths: []core.PathPlan{
		{Path: direct, Param: core.PathParam{Path: direct, Legs: []core.LinkParam{leg}}, Bytes: bytes - staged, Chunks: 1},
		{Path: via, Param: core.PathParam{Path: via, Legs: []core.LinkParam{leg, leg}}, Bytes: staged, Chunks: chunks},
	}}
}

// mustCompile resolves pl through the context's graph cache.
func mustCompile(t *testing.T, ctx *Context, pl *core.Plan) *pipeline.CompiledPlan {
	t.Helper()
	cp, err := ctx.graphFor(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestGraphCacheClockEviction(t *testing.T) {
	// Fill one shard of the context's graph cache (16 graphs) with
	// GPU-staged graphs, then push as many direct ones through it: the
	// CLOCK hand must evict every staged graph, and each must give its
	// staging ring back to GPU 2.
	_, ctx := newCtx(t, graphsConfig())
	dev := ctx.rt.Device(2)
	free := dev.FreeMemory()
	const perShard = graphCacheCapacity / 16 // core.Cache has 16 shards
	fill := func(i int, pl *core.Plan) {
		t.Helper()
		key := uint64(i)<<4 | 3 // every key lands in shard 3
		if _, err := ctx.graphs.Get(key, func() (*pipeline.CompiledPlan, error) {
			return ctx.engine.Compile(pl)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perShard; i++ {
		fill(i, stagedPlan(float64(i+1)*hw.MiB, hw.MiB/2, 4))
	}
	if dev.FreeMemory() >= free {
		t.Fatal("staged graphs hold no staging memory on GPU 2")
	}
	for i := perShard; i < 2*perShard; i++ {
		fill(i, stagedPlan(float64(i+1)*hw.MiB, 0, 1))
	}
	if n := ctx.GraphCount(); n != perShard {
		t.Fatalf("cache retains %d graphs, want %d", n, perShard)
	}
	if st := ctx.GraphStats(); st.Evictions != perShard {
		t.Fatalf("evictions = %d, want %d", st.Evictions, perShard)
	}
	if got := dev.FreeMemory(); got != free {
		t.Fatalf("GPU 2 has %v bytes free after evicting every staged graph, want %v", got, free)
	}
}

func TestGraphCacheRecompileReleasesStaging(t *testing.T) {
	// A re-plan that changes the structure under the same key (the staged
	// path went idle) is recompiled and Put over the cached graph; the
	// displaced graph must give its staging ring back.
	_, ctx := newCtx(t, graphsConfig())
	dev := ctx.rt.Device(2)
	free := dev.FreeMemory()
	staged := stagedPlan(64*hw.MiB, 16*hw.MiB, 4)
	mustCompile(t, ctx, staged)
	if dev.FreeMemory() >= free {
		t.Fatal("staged graph holds no staging memory on GPU 2")
	}
	direct := stagedPlan(64*hw.MiB, 0, 1)
	if direct.Key() != staged.Key() {
		t.Fatal("the two plans must share a cache key")
	}
	if cp := mustCompile(t, ctx, direct); cp.Plan() != direct {
		t.Fatal("structural change was not recompiled")
	}
	if got := dev.FreeMemory(); got != free {
		t.Fatalf("GPU 2 has %v bytes free after the recompile, want %v", got, free)
	}
	if st := ctx.GraphStats(); st.Compiles != 2 || ctx.GraphCount() != 1 {
		t.Fatalf("stats %+v with %d graphs cached, want 2 compiles and 1 graph", st, ctx.GraphCount())
	}
}

func TestGraphCacheFailoverReleasesStaging(t *testing.T) {
	// A failover exclusion of the staged path drops the graph routed over
	// it, which must give its staging ring back; a graph that leaves the
	// path idle stays cached.
	_, ctx := newCtx(t, graphsConfig())
	dev := ctx.rt.Device(2)
	free := dev.FreeMemory()
	staged := stagedPlan(64*hw.MiB, 16*hw.MiB, 4)
	mustCompile(t, ctx, staged)
	mustCompile(t, ctx, stagedPlan(32*hw.MiB, 0, 1))
	ctx.invalidateGraphsFor(map[hw.Path]bool{staged.Paths[1].Path: true})
	if got := dev.FreeMemory(); got != free {
		t.Fatalf("GPU 2 has %v bytes free after the exclusion, want %v", got, free)
	}
	if st := ctx.GraphStats(); st.Invalidations != 1 || ctx.GraphCount() != 1 {
		t.Fatalf("stats %+v with %d graphs cached, want 1 invalidation and 1 graph", st, ctx.GraphCount())
	}
}
