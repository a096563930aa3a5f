// mplint is the repo's domain-specific static analyzer: a multichecker
// running the internal/analysis suite over the module.
//
// Usage:
//
//	mplint [flags] [packages]
//
// With no arguments it analyzes ./... from the current directory. Exit
// status: 0 clean, 1 findings, 2 operational error.
//
// Flags:
//
//	-run a,b,...        run only the named analyzers (directives naming
//	                    the rest of the suite are still recognized)
//	-sarif file         also write a SARIF 2.1.0 report of all findings
//	                    (suppressed ones included, marked suppressed)
//	-update-wire-lock   regenerate the v1 wire-contract lock files and
//	                    exit (review the diff: it is the wire change)
//
// The analyzers enforce the invariants behind the repo's byte-identical
// figure-table guarantee and its concurrency/wire contracts:
//
//	simtime         no wall-clock time / unseeded randomness in the
//	                simulation core (internal/sim, fluid, core, ucx)
//	simtaint        no calls from the core that *transitively* reach
//	                wall-clock/global-rand roots (cross-package facts)
//	maporder        no order-sensitive work inside range-over-map loops
//	atomicfield     no mixed atomic/plain access to the same variable
//	units           no bytes / MiB / seconds confusion in the model math
//	errchecksim     no discarded errors from the repo's fallible APIs
//	wirefreeze      no unreviewed drift of the serve v1 JSON contract
//	                (checked against the committed v1.lock.json)
//	lockdiscipline  no copied mutexes, locked early returns, or fields
//	                guarded by a mutex only sometimes
//
// A finding that is a considered exception is silenced in place with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory, and a
// directive that no longer suppresses anything is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/checker"
	"repro/internal/analysis/errchecksim"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/simtaint"
	"repro/internal/analysis/simtime"
	"repro/internal/analysis/units"
	"repro/internal/analysis/wirefreeze"
)

// Suite is the full mplint analyzer suite, in reporting order.
var Suite = []*analysis.Analyzer{
	atomicfield.Analyzer,
	errchecksim.Analyzer,
	lockdiscipline.Analyzer,
	maporder.Analyzer,
	simtaint.Analyzer,
	simtime.Analyzer,
	units.Analyzer,
	wirefreeze.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mplint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	sarif := fs.String("sarif", "", "write a SARIF report of all findings to this file")
	updateWireLock := fs.Bool("update-wire-lock", false, "regenerate wire-contract lock files and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *updateWireLock {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mplint: %v\n", err)
			return 2
		}
		written, err := wirefreeze.UpdateLocks(wd, fs.Args()...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mplint: -update-wire-lock: %v\n", err)
			return 2
		}
		for _, path := range written {
			fmt.Fprintf(os.Stdout, "wrote %s\n", path)
		}
		if len(written) == 0 {
			fmt.Fprintln(os.Stderr, "mplint: -update-wire-lock: no wire packages matched")
			return 2
		}
		return 0
	}

	opts := checker.Options{Patterns: fs.Args(), SARIF: *sarif}
	if *runList != "" {
		opts.Run = strings.Split(*runList, ",")
	}
	for _, a := range Suite {
		opts.Known = append(opts.Known, a.Name)
	}
	return checker.MainOpts(os.Stdout, os.Stderr, opts, Suite)
}
