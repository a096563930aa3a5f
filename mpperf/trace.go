package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. parent is the
// index of the enclosing span in the same recorder, or -1.
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// spans records spans in memory. A nil *spans records nothing, so the
// untraced runs pay one nil check per call site. A recorder belongs to one
// goroutine.
type spans struct {
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when not recording).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, start: time.Since(s.epoch), parent: parent})
	return len(s.list) - 1
}

// end closes the span begin returned.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].end = time.Since(s.epoch)
}

// spanStats summarises every span of one name.
type spanStats struct {
	count       int
	total, self time.Duration
	p50         time.Duration
}

// summarize groups spans by name. A span's self time is its duration minus
// the time its child spans cover (children of one span never overlap: a
// recorder belongs to one goroutine).
func summarize(recs ...*spans) map[string]*spanStats {
	out := map[string]*spanStats{}
	durs := map[string][]float64{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		child := make([]time.Duration, len(r.list))
		for _, sp := range r.list {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range r.list {
			st := out[sp.name]
			if st == nil {
				st = &spanStats{}
				out[sp.name] = st
			}
			d := sp.end - sp.start
			st.count++
			st.total += d
			st.self += d - child[i]
			durs[sp.name] = append(durs[sp.name], float64(d))
		}
	}
	for name, ds := range durs {
		out[name].p50 = time.Duration(median(ds))
	}
	return out
}

// printSpans writes the span table of the traced output.
func printSpans(rep *report, stats map[string]*spanStats) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	rep.notef("--- spans (benchmark-side, wall clock) ---")
	rep.notef("%-22s %9s %12s %12s %12s", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, n := range names {
		st := stats[n]
		rep.notef("%-22s %9d %12.3f %12.3f %12.3f", n, st.count,
			float64(st.total)/1e6, float64(st.self)/1e6, float64(st.p50)/1e3)
	}
}

// profileLayers lists, in match order, the package prefixes whose flat
// CPU samples are attributed to each layer; every other sample is other.
var profileLayers = []struct{ layer, pkg string }{
	{"sim", "repro/internal/sim"},
	{"sim", "container/heap"}, // only the sim event queue uses it

	{"fluid", "repro/internal/fluid"},
	{"core", "repro/internal/core"},
	{"hw", "repro/internal/hw"},
	{"pipeline", "repro/internal/pipeline"},
	{"cuda", "repro/internal/cuda"},
	{"ucx", "repro/internal/ucx"},
	{"mpi", "repro/internal/mpi"},
	{"omb", "repro/internal/omb"},
	{"tuner", "repro/internal/tuner"},
	{"serve", "repro/internal/serve"},
	{"json", "encoding/json"},
	{"http", "net/http"},
	{"http", "net"},
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	for _, l := range profileLayers {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.layer
		}
	}
	return "other"
}

// packageOf extracts the import path from a Go symbol name such as
// "repro/internal/sim.(*Simulator).Run" or "net/http.(*conn).serve.func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribution is flat CPU time per layer from one profile.
type attribution struct {
	byLayer map[string]time.Duration // includes "other"
	other   map[string]time.Duration // per function, for the report
	total   time.Duration
	samples int64
}

// attribute sums flat samples per layer. By construction the layers plus
// other add up to the profile total.
func attribute(samples []leafSample) attribution {
	a := attribution{byLayer: map[string]time.Duration{}, other: map[string]time.Duration{}}
	for _, s := range samples {
		l := layerOf(s.fn)
		a.byLayer[l] += time.Duration(s.ns)
		if l == "other" {
			a.other[s.fn] += time.Duration(s.ns)
		}
		a.total += time.Duration(s.ns)
		a.samples += s.count
	}
	return a
}

// cpuProfile captures a CPU profile of everything the process does while
// body runs.
func cpuProfile(body func() error) (attribution, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return attribution{}, fmt.Errorf("start cpu profile: %w", err)
	}
	err := body()
	pprof.StopCPUProfile()
	if err != nil {
		return attribution{}, err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return attribution{}, fmt.Errorf("parse cpu profile: %w", err)
	}
	return attribute(samples), nil
}

// otherTop is how many of other's heaviest functions the report lists.
const otherTop = 12

// setSelfTimes sets <layer>.self_ms_per_op for every profiled layer and
// prints the attribution table.
func setSelfTimes(rep *report, a attribution, ops int64) {
	layers := []string{"other"}
	seen := map[string]bool{"other": true}
	for _, l := range profileLayers {
		if !seen[l.layer] {
			seen[l.layer] = true
			layers = append(layers, l.layer)
		}
	}
	rep.notef("--- cpu profile: flat self time by layer (%d samples, %.3f s, %d ops) ---",
		a.samples, a.total.Seconds(), ops)
	var sum time.Duration
	for _, l := range layers {
		d := a.byLayer[l]
		sum += d
		perOp := 0.0
		if ops > 0 {
			perOp = float64(d) / 1e6 / float64(ops)
		}
		rep.set(l+".self_ms_per_op", perOp, "ms")
		share := 0.0
		if a.total > 0 {
			share = 100 * float64(d) / float64(a.total)
		}
		rep.notef("%-10s %10.3f ms %6.2f%% %12.6f ms/op", l, float64(d)/1e6, share, perOp)
	}
	rep.notef("attributed+other = %.3f ms of %.3f ms profiled", float64(sum)/1e6, float64(a.total)/1e6)
	fns := make([]string, 0, len(a.other))
	for fn := range a.other {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if a.other[fns[i]] != a.other[fns[j]] {
			return a.other[fns[i]] > a.other[fns[j]]
		}
		return fns[i] < fns[j]
	})
	if len(fns) > otherTop {
		fns = fns[:otherTop]
	}
	for _, fn := range fns {
		rep.notef("  other: %10.3f ms  %s", float64(a.other[fn])/1e6, fn)
	}
	if sum != a.total {
		rep.fail("profile attribution does not add up: %v of %v", sum, a.total)
	}
}

// runtimeStats is a snapshot of the Go runtime's allocation and GC CPU
// counters.
type runtimeStats struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	rs := runtimeStats{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU, rs.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rs
}

// setRuntime sets the runtime.* metrics from two snapshots around ops.
func setRuntime(rep *report, before, after runtimeStats, ops int64) {
	if ops <= 0 {
		return
	}
	rep.set("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/1e6/float64(ops), "MB")
	rep.set("runtime.allocs_per_op", float64(after.allocs-before.allocs)/float64(ops), "count")
	if d := after.totalCPU - before.totalCPU; d > 0 {
		rep.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/d, "ratio")
	}
}

// setOverhead sets trace.overhead_pct: how much the traced phase's
// ops per CPU-second fell short of the untraced phase's.
func setOverhead(rep *report, untraced, traced float64) {
	if untraced <= 0 || traced <= 0 {
		return
	}
	pct := 100 * (untraced/traced - 1)
	rep.set("trace.overhead_pct", pct, "%")
	rep.notef("ops per CPU-second: untraced %.4g, traced %.4g (overhead %.2f%%)", untraced, traced, pct)
}
