package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestObsTraceGolden compares the fault-rich adaptive run's Perfetto export
// (what mpbench -exp fig4 -quick -trace writes) byte for byte against the
// checked-in trace. Regenerate with:
// go test ./internal/exp -run TestObsTraceGolden -update
func TestObsTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := ObsTrace("beluga", &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "obstrace_beluga.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace drifted from %s (%d bytes, want %d)", golden, buf.Len(), len(want))
	}
}

// TestObsTraceValidAndByteIdentical is the end-to-end observability gate:
// a fault-rich adaptive run's exported trace must pass the Perfetto schema
// validator, and two identical runs must produce byte-identical files.
func TestObsTraceValidAndByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	infoA, err := ObsTrace("beluga", &a)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := ObsTrace("beluga", &b)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceJSON(a.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two identical runs produced different traces (%d vs %d bytes)", a.Len(), b.Len())
	}
	if infoA.Spans == 0 || infoA.Instants == 0 {
		t.Fatalf("trace is empty: %d spans, %d instants", infoA.Spans, infoA.Instants)
	}
	if infoA.Spans != infoB.Spans || infoA.Instants != infoB.Instants {
		t.Fatalf("event counts differ across runs: %+v vs %+v", infoA, infoB)
	}
}

// TestObsTraceStatsSnapshot checks the unified stats export of a traced
// run: every domain the run exercised must be populated.
func TestObsTraceStatsSnapshot(t *testing.T) {
	var buf bytes.Buffer
	info, err := ObsTrace("beluga", &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := info.Stats
	if st.PlanCache.Hits+st.PlanCache.Misses == 0 {
		t.Error("plan cache saw no lookups")
	}
	if st.Observer == nil {
		t.Error("recalibrating run has no observer stats")
	}
	if st.Metrics == nil {
		t.Fatal("traced run has no metrics snapshot")
	}
	if st.Metrics.Counters["transfers.started"] != 1 ||
		st.Metrics.Counters["transfers.completed"] != 1 {
		t.Errorf("transfer counters = %v", st.Metrics.Counters)
	}
	if st.Metrics.Counters["faults.notified"] == 0 {
		t.Error("fault notification not counted")
	}
	h, ok := st.Metrics.Histograms["transfer.seconds"]
	if !ok || h.Count != 1 {
		t.Errorf("latency histogram = %+v", h)
	}
	var js bytes.Buffer
	if err := st.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var js2 bytes.Buffer
	if err := st.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), js2.Bytes()) {
		t.Error("stats JSON not deterministic")
	}
}
