package checker_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

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

// suite mirrors cmd/mplint's analyzer set.
var suite = []*analysis.Analyzer{
	atomicfield.Analyzer,
	errchecksim.Analyzer,
	lockdiscipline.Analyzer,
	maporder.Analyzer,
	simtaint.Analyzer,
	simtime.Analyzer,
	units.Analyzer,
	wirefreeze.Analyzer,
}

func load(t *testing.T, patterns ...string) []*checker.Package {
	t.Helper()
	pkgs, err := checker.Load(".", patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	return pkgs
}

// TestDirectiveValidation: malformed //lint:allow comments (missing
// reason, unknown analyzer) are findings in their own right, from the
// pseudo-analyzer "lintdirective", and cannot be suppressed.
func TestDirectiveValidation(t *testing.T) {
	pkgs := load(t, "./../testdata/src/lintdirective/sim")
	findings, err := checker.Analyze(pkgs, suite)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var gotReason, gotUnknown, gotStale bool
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		switch {
		case f.Analyzer == "lintdirective" && strings.Contains(f.Message, "requires a reason"):
			gotReason = true
		case f.Analyzer == "lintdirective" && strings.Contains(f.Message, `unknown analyzer "simtyme"`):
			gotUnknown = true
		case f.Analyzer == "lintdirective" && strings.Contains(f.Message, "suppresses nothing"):
			gotStale = true
		}
	}
	if !gotReason {
		t.Errorf("no finding for reason-less lint:allow; directives must carry a justification")
	}
	if !gotUnknown {
		t.Errorf("no finding for lint:allow naming unknown analyzer; typos must not silently suppress nothing")
	}
	if !gotStale {
		t.Errorf("no finding for stale lint:allow; directives that suppress nothing must be flagged")
	}
	// The reason-less directive must not actually suppress: the
	// wall-clock finding it sits above stays active.
	var simtimeActive int
	for _, f := range findings {
		if f.Analyzer == "simtime" && !f.Suppressed {
			simtimeActive++
		}
	}
	if simtimeActive != 2 {
		t.Errorf("got %d active simtime findings, want 2 (malformed directives must not suppress)", simtimeActive)
	}
}

// TestFindingsDeterministic: the checker's own output order must not
// depend on map iteration (the invariant maporder enforces applies to
// the linter too).
func TestFindingsDeterministic(t *testing.T) {
	var first []string
	for i := 0; i < 3; i++ {
		pkgs := load(t, "./../testdata/src/...")
		findings, err := checker.Analyze(pkgs, suite)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		if i == 0 {
			first = lines
			if len(first) == 0 {
				t.Fatal("fixture tree produced no findings")
			}
			continue
		}
		if len(lines) != len(first) {
			t.Fatalf("run %d: %d findings, first run had %d", i, len(lines), len(first))
		}
		for j := range lines {
			if lines[j] != first[j] {
				t.Fatalf("run %d: finding %d differs:\n  %s\n  %s", i, j, lines[j], first[j])
			}
		}
	}
}

// TestSuiteOnFixtureTree: the full suite over the whole fixture tree
// reports every analyzer at least once, keeps suppressed findings
// retrievable (deleting any //lint:allow re-fails the lint), and Main
// exits nonzero on the violations.
func TestSuiteOnFixtureTree(t *testing.T) {
	pkgs := load(t, "./../testdata/src/...")
	findings, err := checker.Analyze(pkgs, suite)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	active := make(map[string]int)
	suppressed := make(map[string]int)
	for _, f := range findings {
		if f.Suppressed {
			suppressed[f.Analyzer]++
		} else {
			active[f.Analyzer]++
		}
	}
	for _, a := range suite {
		if active[a.Name] == 0 {
			t.Errorf("analyzer %s found nothing across the fixture tree", a.Name)
		}
		if suppressed[a.Name] == 0 {
			t.Errorf("analyzer %s has no suppressed fixture finding (every analyzer needs a deliberate, silenced false positive)", a.Name)
		}
	}

	var out, errw bytes.Buffer
	code := checker.Main(&out, &errw, []string{"./../testdata/src/..."}, suite)
	if code != 1 {
		t.Fatalf("Main on violating fixtures: exit %d, want 1\nstderr: %s", code, errw.String())
	}
	for _, f := range findings {
		if !f.Suppressed {
			continue
		}
		// Match by exact position: the same message may legitimately be
		// active at a different, unsuppressed site.
		loc := fmt.Sprintf("%s:%d:%d:", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column)
		if strings.Contains(out.String(), loc) {
			t.Errorf("suppressed finding leaked into Main output: %s %s", loc, f.Message)
		}
	}
}

// TestKnownSubset: running a subset of the suite (mplint -run) must not
// misjudge directives naming analyzers that did not run — they are
// neither "unknown" nor stale, because the full suite is declared via
// the known-names universe.
func TestKnownSubset(t *testing.T) {
	pkgs := load(t, "./../testdata/src/lintdirective/sim")
	var knownNames []string
	for _, a := range suite {
		knownNames = append(knownNames, a.Name)
	}
	// Run only maporder: the fixture's simtime directives name an
	// analyzer that exists but did not run.
	findings, err := checker.AnalyzeKnown(pkgs, []*analysis.Analyzer{maporder.Analyzer}, knownNames)
	if err != nil {
		t.Fatalf("AnalyzeKnown: %v", err)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, `unknown analyzer "simtime"`) {
			t.Errorf("subset run misjudged a suite analyzer as unknown: %s", f.Message)
		}
		if f.Analyzer == "lintdirective" && strings.Contains(f.Message, "suppresses nothing") {
			t.Errorf("subset run judged staleness for an analyzer that did not run: %s", f.Message)
		}
	}
	// The truly unknown name must still be flagged.
	var gotUnknown bool
	for _, f := range findings {
		if strings.Contains(f.Message, `unknown analyzer "simtyme"`) {
			gotUnknown = true
		}
	}
	if !gotUnknown {
		t.Errorf("subset run lost the unknown-analyzer finding")
	}
}

// TestSARIFOutput: the SARIF export is deterministic, names every suite
// rule, and carries suppressed findings as suppressed results.
func TestSARIFOutput(t *testing.T) {
	pkgs := load(t, "./../testdata/src/simtime/...")
	findings, err := checker.Analyze(pkgs, suite)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	render := func() string {
		var buf bytes.Buffer
		if err := checker.WriteSARIF(&buf, ".", suite, findings); err != nil {
			t.Fatalf("WriteSARIF: %v", err)
		}
		return buf.String()
	}
	first := render()
	if second := render(); second != first {
		t.Fatalf("SARIF output not byte-stable across renders")
	}
	for _, a := range suite {
		if !strings.Contains(first, fmt.Sprintf("%q", a.Name)) {
			t.Errorf("SARIF rules missing analyzer %s", a.Name)
		}
	}
	if !strings.Contains(first, `"suppressions"`) || !strings.Contains(first, `"inSource"`) {
		t.Errorf("SARIF output lost the suppressed findings (want inSource suppressions)")
	}
}

// TestMainCleanPackage: Main exits 0 on a violation-free package.
func TestMainCleanPackage(t *testing.T) {
	var out, errw bytes.Buffer
	code := checker.Main(&out, &errw, []string{"./../testdata/src/simtime/other"}, suite)
	if code != 0 {
		t.Fatalf("Main on clean fixture: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}
