// Command mpperf is the repository benchmark. It runs one workload —
// figs, transfers or serve — for a wall-clock budget, checks every output,
// prints a human-readable report, and ends with one JSON line holding the
// end-to-end metrics or, with --trace 1, the per-layer metrics.
//
//	bash mpperf/run.sh --workload transfers --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and cmd/mpserve from the checkout's sources
// and passes --root and --mpserve. README.md describes the workloads, the
// metrics, and how to read the traced output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the checked-in transfers golden was recorded
// with; heldOutSeed is never used while tuning the benchmark or a change,
// so a claimed gain can be confirmed on inputs nobody optimised for.
const (
	defaultSeed = 1
	heldOutSeed = 20251117
)

// runDeadline bounds one benchmark process. Past it the watchdog stops the
// daemon (if any) and exits non-zero instead of hanging.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	root    string // checkout root
	mpserve string // daemon binary for the serve workload
	seed    uint64
	seconds float64
	trace   bool
}

// report collects a workload's outcome: its metrics and op counts. Its
// notef and fail print the human-readable lines above the JSON result as
// the run goes.
type report struct {
	attempted, failed int64
	checksOK          bool
	metrics           map[string]metric
}

func newReport() *report {
	return &report{checksOK: true, metrics: map[string]metric{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// notef prints one line of the human-readable report.
func (r *report) notef(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// fail records a failed output check that is not tied to a single op.
func (r *report) fail(format string, args ...any) {
	r.checksOK = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(config, *report) error{
	"figs":      runFigs,
	"transfers": runTransfers,
	"serve":     runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figs, transfers or serve")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed (figs ignores it)")
		seconds = flag.Int("seconds", 5, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root    = flag.String("root", ".", "checkout root")
		mpserve = flag.String("mpserve", ".bench_build/mpserve", "mpserve binary (serve workload)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mpperf: need --workload figs|transfers|serve, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		root:    *root,
		mpserve: *mpserve,
		seed:    *seed,
		seconds: float64(*seconds),
		trace:   *trace == 1,
	}
	if !filepath.IsAbs(cfg.mpserve) {
		cfg.mpserve = filepath.Join(cfg.root, cfg.mpserve)
	}
	os.Exit(execute(*name, run, cfg))
}

// execute runs one workload with the process-wide safety nets: children
// are stopped on return, on a panic, on SIGINT/SIGTERM, and when the
// watchdog deadline passes.
func execute(name string, run func(config, *report) error, cfg config) (code int) {
	defer stopChildren()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "mpperf: %s: panic: %v\n", name, p)
			code = 1
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	watchdog := time.NewTimer(runDeadline)
	defer watchdog.Stop()
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "mpperf: %v: stopping\n", sig)
		case <-watchdog.C:
			fmt.Fprintf(os.Stderr, "mpperf: %s: no result within %v\n", name, runDeadline)
		}
		stopChildren()
		os.Exit(1)
	}()

	rep := newReport()
	fmt.Printf("mpperf %s: seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "mpperf: %s: %v\n", name, err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "mpperf: %s: no op attempted\n", name)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "mpperf: %s: metric %s not produced\n", name, m.name)
			return 1
		}
		if got.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "mpperf: %s: metric %s has unit %s, want %s\n", name, m.name, got.Unit, m.unit)
			return 1
		}
	}
	out := result{
		Correct:   rep.checksOK && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	printMetrics(rep, want)
	for _, m := range want {
		out.Metrics[m.name] = rep.metrics[m.name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpperf: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printMetrics lists the metrics of the chosen set, one per line, above
// the JSON result.
func printMetrics(rep *report, set []metricDef) {
	names := make([]string, 0, len(set))
	for _, m := range set {
		names = append(names, m.name)
	}
	sort.Strings(names)
	fmt.Println("--- metrics ---")
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
