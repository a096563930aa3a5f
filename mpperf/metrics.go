package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror the metric lists of BENCHMARK.json; a test
// keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"pred_err_pct", "%"},
	{"sim_gbps", "GB/s"},
}

var perLayer = []metricDef{
	{"sim.self_ms_per_op", "ms"},
	{"sim.cpu_ns_per_event", "ns"},
	{"sim.events_per_op", "count"},
	{"fluid.self_ms_per_op", "ms"},
	{"fluid.link_gb_per_op", "GB"},
	{"core.self_ms_per_op", "ms"},
	{"core.plan_us", "us"},
	{"core.plan_hit_ratio", "ratio"},
	{"core.plan_misses_per_op", "count"},
	{"core.plan_evictions", "count"},
	{"core.inflight_merges", "count"},
	{"core.refits", "count"},
	{"hw.self_ms_per_op", "ms"},
	{"pipeline.self_ms_per_op", "ms"},
	{"cuda.self_ms_per_op", "ms"},
	{"cuda.graph_hit_ratio", "ratio"},
	{"cuda.graph_replays_per_op", "count"},
	{"cuda.graph_compiles", "count"},
	{"ucx.self_ms_per_op", "ms"},
	{"ucx.put_issue_us", "us"},
	{"ucx.retries", "count"},
	{"ucx.failovers", "count"},
	{"mpi.self_ms_per_op", "ms"},
	{"omb.self_ms_per_op", "ms"},
	{"tuner.self_ms_per_op", "ms"},
	{"exp.fig4_s", "s"},
	{"exp.fig5_s", "s"},
	{"exp.fig6_s", "s"},
	{"exp.fig7_s", "s"},
	{"serve.self_ms_per_op", "ms"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.server_batch_ms", "ms"},
	{"serve.errors", "count"},
	{"serve.reloads", "count"},
	{"serve.http_p50_ms", "ms"},
	{"serve.tcp_p50_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"json.self_ms_per_op", "ms"},
	{"http.self_ms_per_op", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"other.self_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

// zeroPerLayer presets every per-layer metric to zero: a layer a workload
// never reaches reads 0 (no work, no samples) instead of going missing.
func zeroPerLayer(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
}

// tailBeyond is how many samples the reported tail percentile must leave
// above it.
const tailBeyond = 10

// median returns the middle of the samples (mean of the two middles for an
// even count); the slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile with at least tailBeyond samples
// above it: the sample with exactly tailBeyond larger ones, and its
// percentile rank. ok is false when there are too few samples. The slice is
// sorted in place.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	sort.Float64s(xs)
	i := n - tailBeyond - 1
	return xs[i], 100 * float64(i+1) / float64(n), true
}

// setLatency sets p50_ms and tail_ms from per-op wall times in seconds.
func setLatency(rep *report, what string, secs []float64) error {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	tv, tp, ok := tail(ms)
	if !ok {
		return fmt.Errorf("%d %s samples: need more than %d for a tail percentile", len(ms), what, tailBeyond)
	}
	p50 := median(ms)
	rep.set("p50_ms", p50, "ms")
	rep.set("tail_ms", tv, "ms")
	rep.notef("latency per %s: n=%d p50=%.4f ms tail=p%.2f=%.4f ms (%d samples beyond)",
		what, len(ms), p50, tp, tv, tailBeyond)
	return nil
}

// stealLimit is the largest share of the host's CPU capacity the
// hypervisor may steal during a window for the window's timings to count.
// Under load, quiet stretches of the reference host stole 0.5-1.3 % of it
// and bursts, which last minutes, 14-20 %; a burst slowed serve's p50 by a
// quarter and more than doubled its tail, and no statistic taken within a
// run can undo that once it covers the whole run.
const stealLimit = 0.04

// stretch bounds how long a measurement may go on replacing windows lost
// to steal, as a multiple of its budget, so that runs stay short when
// bursts are frequent; a burst longer than that is only partly filtered.
const stretch = 1.5

// hostTicks is the host's stolen and total CPU time, in clock ticks summed
// over its CPUs, from the first line of /proc/stat. Where that file cannot
// be read both stay zero and every window counts as clean.
type hostTicks struct{ steal, total int64 }

func readHostTicks() hostTicks {
	var t hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already part of user.
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// timedWindow is a stretch of measured ops and what the host stole from it.
type timedWindow struct {
	secs  []float64 // wall time per op, in order
	ops   int64     // ops completed (serve counts plans)
	cpu   float64   // CPU seconds of the process that runs the program
	wall  float64   // seconds
	steal float64   // share of the host's CPU capacity stolen
}

func (w timedWindow) clean() bool { return w.steal <= stealLimit }

// windowClock opens windows and closes them into timedWindows; cpu reads
// the CPU seconds of the process that runs the program.
type windowClock struct {
	cpu   func() float64
	start time.Time
	cpu0  float64
	host  hostTicks
}

func (c *windowClock) open() {
	c.cpu0, c.host = c.cpu(), readHostTicks()
	c.start = time.Now()
}

// close ends the open window, holding the given ops, and opens the next.
func (c *windowClock) close(secs []float64, ops int64) timedWindow {
	w := timedWindow{secs: secs, ops: ops, wall: time.Since(c.start).Seconds(), cpu: c.cpu() - c.cpu0}
	if h := readHostTicks(); h.total > c.host.total {
		w.steal = float64(h.steal-c.host.steal) / float64(h.total-c.host.total)
	}
	c.open()
	return w
}

// pickWindows returns the windows the end-to-end metrics use: every clean
// one, topped up with the least-stolen others until enough holds (it
// already does when the run found enough clean windows before its
// stretch ran out).
func pickWindows(ws []timedWindow, enough func([]timedWindow) bool) (used []timedWindow, clean int) {
	var stolen []timedWindow
	for _, w := range ws {
		if w.clean() {
			used = append(used, w)
		} else {
			stolen = append(stolen, w)
		}
	}
	clean = len(used)
	sort.SliceStable(stolen, func(i, j int) bool { return stolen[i].steal < stolen[j].steal })
	for _, w := range stolen {
		if enough(used) {
			break
		}
		used = append(used, w)
	}
	return used, clean
}

// wallAtLeast is an enough for pickWindows: the windows cover budget
// seconds.
func wallAtLeast(budget float64) func([]timedWindow) bool {
	return func(ws []timedWindow) bool {
		var wall float64
		for _, w := range ws {
			wall += w.wall
		}
		return wall >= budget
	}
}

// setWindowed sets p50_ms, tail_ms and ops_per_cpu_s of a time-bounded
// workload from the windows pickWindows keeps: p50 over all their ops,
// tail as the median of each window's tail (10 ops beyond within the
// window, so a fixed window size fixes the percentile however many ops a
// faster host fits into the run), and ops per CPU-second over them.
func setWindowed(rep *report, what string, ws []timedWindow, budget float64) error {
	used, clean := pickWindows(ws, wallAtLeast(budget))
	var all, tails []float64
	var ops int64
	var cpu, maxSteal float64
	pct := 0.0
	for _, w := range used {
		maxSteal = max(maxSteal, w.steal)
		ms := make([]float64, len(w.secs))
		for i, s := range w.secs {
			ms[i] = s * 1e3
		}
		all = append(all, ms...)
		v, p, ok := tail(ms)
		if !ok {
			return fmt.Errorf("window of %d %s samples: need more than %d for a tail percentile", len(ms), what, tailBeyond)
		}
		tails, pct = append(tails, v), p
		ops += w.ops
		cpu += w.cpu
	}
	if len(used) == 0 || cpu <= 0 {
		return fmt.Errorf("no complete window of %s samples measured", what)
	}
	p50, tv := median(all), median(tails)
	rep.set("p50_ms", p50, "ms")
	rep.set("tail_ms", tv, "ms")
	rep.set("ops_per_cpu_s", float64(ops)/cpu, "1/s")
	rep.notef("latency per %s: n=%d p50=%.4f ms tail=p%.2f=%.4f ms (%d samples beyond in each window of %d, median of %d windows)",
		what, len(all), p50, pct, tv, tailBeyond, len(used[0].secs), len(used))
	rep.notef("windows: %d measured, %d clean (host steal <= %.0f%%), %d used (steal <= %.1f%%)",
		len(ws), clean, 100*stealLimit, len(used), 100*maxSteal)
	return nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// procCPU returns utime+stime of another process in seconds, read from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields after
	// it are space separated, utime and stime being the 12th and 13th.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(proc string) (float64, error) {
	b, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
}

// medianSetup runs a set-up function until reps of them ran clean of host
// steal, or 2*reps ran, keeps the last result and returns the median
// duration in seconds of the set-ups pickWindows keeps: one set-up is too
// short and too exposed to host noise to compare on its own.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ws []timedWindow
	clock := windowClock{cpu: func() float64 { return 0 }}
	for i, clean := 0, 0; clean < reps && i < 2*reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		clock.open()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		w := clock.close(nil, 1)
		if w.clean() {
			clean++
		}
		ws = append(ws, w)
		last = v
	}
	used, _ := pickWindows(ws, func(u []timedWindow) bool { return len(u) >= reps })
	secs := make([]float64, len(used))
	for i, w := range used {
		secs[i] = w.wall
	}
	return last, median(secs), nil
}

// children are the processes this benchmark started; stopChildren kills
// and reaps them on every exit path.
var children struct {
	sync.Mutex
	stops []func()
}

func addChild(stop func()) {
	children.Lock()
	children.stops = append(children.stops, stop)
	children.Unlock()
}

func stopChildren() {
	children.Lock()
	stops := children.stops
	children.stops = nil
	children.Unlock()
	for _, stop := range stops {
		stop()
	}
}
