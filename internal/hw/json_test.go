package hw

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

const sampleTopoJSON = `{
  "name": "custom2",
  "gpus": 2,
  "numas": 1,
  "gpu_numa": [0, 0],
  "nvlink": [{"a": 0, "b": 1, "bandwidth_gbps": 50, "latency_us": 1.5}],
  "pcie": [{"bandwidth_gbps": 12, "latency_us": 5}],
  "mem": [{"bandwidth_gbps": 40, "latency_us": 0.4}],
  "inter": [],
  "gpu_sync_overhead_us": 3,
  "host_sync_overhead_us": 4
}`

func TestSpecFromJSON(t *testing.T) {
	sp, err := SpecFromJSON(strings.NewReader(sampleTopoJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "custom2" || sp.GPUs != 2 {
		t.Fatalf("spec = %+v", sp)
	}
	lp := sp.NVLink[Pair{0, 1}]
	if lp.Bandwidth != 50*GBps {
		t.Fatalf("nvlink bandwidth = %v", lp.Bandwidth)
	}
	if math.Abs(lp.Latency-1.5e-6) > 1e-15 {
		t.Fatalf("nvlink latency = %v", lp.Latency)
	}
	// Single PCIe entry replicated to both GPUs.
	if len(sp.PCIe) != 2 || sp.PCIe[1].Bandwidth != 12*GBps {
		t.Fatalf("pcie = %+v", sp.PCIe)
	}
	if sp.GPUSyncOverhead != 3e-6 || sp.HostSyncOverhead != 4e-6 {
		t.Fatalf("sync overheads = %v / %v", sp.GPUSyncOverhead, sp.HostSyncOverhead)
	}
}

// TestSpecJSONRoundTrip: every preset loads back from its own document
// bit for bit. %+v prints each float in its shortest round-trip form (-0
// included) and maps in key order, so equal text means equal bits.
func TestSpecJSONRoundTrip(t *testing.T) {
	for name, mk := range Presets {
		orig := mk()
		var buf bytes.Buffer
		if err := orig.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := SpecFromJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, have := fmt.Sprintf("%+v", *orig), fmt.Sprintf("%+v", *got); have != want {
			t.Errorf("%s: reload differs\n got %s\nwant %s", name, have, want)
		}
	}
}

// TestUnitText pins the document's unit conversions: written values are
// the base value's shortest digits with the decimal exponent moved, and
// read values are rounded once from the shifted text.
func TestUnitText(t *testing.T) {
	writes := []struct {
		v    float64
		exp  int
		want unitNum
	}{
		{5e-6, usExp, "5"},
		{1.8e-6, usExp, "1.8"},
		{4e-7, usExp, "0.4"},
		{1e-13, usExp, "1e-7"},
		{12e9, gbpsExp, "12"},
		{123456789012, gbpsExp, "123.456789012"},
		{1e30, gbpsExp, "1e+21"},
		{0, usExp, "0"},
		{math.Copysign(0, -1), usExp, "-0"},
	}
	for _, w := range writes {
		if got := toUnit(w.v, w.exp); got != w.want {
			t.Errorf("toUnit(%v, %d) = %q, want %q", w.v, w.exp, got, w.want)
		}
	}
	reads := []struct {
		text unitNum
		exp  int
		want float64
	}{
		{"1.5", usExp, 1.5e-6},
		{"1.5e6", usExp, 1.5},
		{"12E-3", gbpsExp, 12e6},
		{"1e-99999999999999999999", usExp, 0},
		{"", usExp, 0},
	}
	for _, r := range reads {
		got, err := r.text.base("x", r.exp)
		if err != nil || got != r.want {
			t.Errorf("%q.base(%d) = %v, %v; want %v", r.text, r.exp, got, err, r.want)
		}
	}
	for _, text := range []unitNum{"1e300", "1e99999999999999999999"} {
		if got, err := text.base("x", gbpsExp); err == nil {
			t.Errorf("%q.base(%d) = %v, want an out-of-range error", text, gbpsExp, got)
		}
	}
}

func TestSpecFromJSONErrors(t *testing.T) {
	cases := []string{
		`{nope`, // syntax
		`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"unknown_field":1}`,                                                         // unknown field
		`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"pcie":[],"mem":[{"bandwidth_gbps":1}]}`,                                    // no pcie
		`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"pcie":[{"bandwidth_gbps":1}],"mem":[]}`,                                    // no mem
		`{"name":"x","gpus":1,"numas":1,"gpu_numa":[0],"pcie":[{"bandwidth_gbps":1}],"mem":[{"bandwidth_gbps":1}]}`,                  // too few gpus
		`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"pcie":[{"bandwidth_gbps":1}],"mem":[{"bandwidth_gbps":1}],"shard_hint":1}`, // field no longer exists
		`{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],"pcie":[{"bandwidth_gbps":"1"}],"mem":[{"bandwidth_gbps":1}]}`,              // quoted number
	}
	for i, c := range cases {
		if _, err := SpecFromJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSpecFromJSONRejectsNegativeProps(t *testing.T) {
	// A minimal valid skeleton with one field poisoned per case.
	mk := func(nvlink, pcie, mem string) string {
		return `{"name":"x","gpus":2,"numas":1,"gpu_numa":[0,0],` +
			`"nvlink":[` + nvlink + `],"pcie":[` + pcie + `],"mem":[` + mem + `]}`
	}
	good := `{"bandwidth_gbps":10,"latency_us":1}`
	cases := map[string]string{
		"negative nvlink bandwidth": mk(`{"a":0,"b":1,"bandwidth_gbps":-10}`, good, good),
		"negative nvlink latency":   mk(`{"a":0,"b":1,"bandwidth_gbps":10,"latency_us":-1}`, good, good),
		"zero pcie bandwidth":       mk(`{"a":0,"b":1,"bandwidth_gbps":10}`, `{"bandwidth_gbps":0}`, good),
		"negative pcie latency":     mk(`{"a":0,"b":1,"bandwidth_gbps":10}`, `{"bandwidth_gbps":10,"latency_us":-2}`, good),
		"negative mem bandwidth":    mk(`{"a":0,"b":1,"bandwidth_gbps":10}`, good, `{"bandwidth_gbps":-1}`),
	}
	for name, doc := range cases {
		if _, err := SpecFromJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := SpecFromJSON(strings.NewReader(mk(`{"a":0,"b":1,"bandwidth_gbps":10}`, good, good))); err != nil {
		t.Fatalf("clean skeleton rejected: %v", err)
	}
}

func TestSpecFromJSONBuildsAndRuns(t *testing.T) {
	sp, err := SpecFromJSON(strings.NewReader(sampleTopoJSON))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sp.EnumeratePaths(0, 1, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	// 2 GPUs: direct + host-staged only.
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
}

func TestSampleTopologyFileLoads(t *testing.T) {
	f, err := os.Open("../../testdata/custom-topology.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := SpecFromJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "custom-2gpu" || sp.GPUs != 2 {
		t.Fatalf("sample topology parsed wrong: %+v", sp)
	}
	if _, err := sp.EnumeratePaths(0, 1, AllPaths); err != nil {
		t.Fatal(err)
	}
}

// TestSpecJSONByteStable is the hot-reload contract of the serving
// registry: WriteJSON → SpecFromJSON → WriteJSON must reproduce the first
// serialization byte for byte, and the reloaded spec must equal the first
// bit for bit, for every preset and for randomized specs whose link
// properties are arbitrary floats (where a float multiply by the unit
// would drift by an ulp).
func TestSpecJSONByteStable(t *testing.T) {
	check := func(t *testing.T, sp *Spec) {
		t.Helper()
		var first bytes.Buffer
		if err := sp.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		got, err := SpecFromJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := got.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip drifted:\n-- first --\n%s\n-- second --\n%s", first.String(), second.String())
		}
		if want, have := fmt.Sprintf("%+v", *sp), fmt.Sprintf("%+v", *got); have != want {
			t.Fatalf("reload differs\n got %s\nwant %s", have, want)
		}
	}
	for name, mk := range Presets {
		t.Run(name, func(t *testing.T) { check(t, mk()) })
	}
	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			gpus := 2 + rng.Intn(4)
			numas := 1 + rng.Intn(2)
			props := func() LinkProps {
				// Raw float bandwidths/latencies (not round numbers), the
				// values where (x/1e9)*1e9/1e9 style double rounding bites.
				return LinkProps{
					Bandwidth: (1 + 300*rng.Float64()) * GBps * (1 + rng.Float64()*1e-12),
					Latency:   (0.1 + 10*rng.Float64()) * 1e-6,
				}
			}
			sp := &Spec{
				Name:             fmt.Sprintf("rand%d", trial),
				GPUs:             gpus,
				NUMAs:            numas,
				GPUNuma:          make([]int, gpus),
				NVLink:           map[Pair]LinkProps{},
				Inter:            map[Pair]LinkProps{},
				GPUSyncOverhead:  rng.Float64() * 1e-5,
				HostSyncOverhead: rng.Float64() * 1e-5,
			}
			for g := 0; g < gpus; g++ {
				sp.GPUNuma[g] = rng.Intn(numas)
				sp.PCIe = append(sp.PCIe, props())
			}
			for n := 0; n < numas; n++ {
				sp.Mem = append(sp.Mem, props())
			}
			for a := 0; a < gpus; a++ {
				for b := a + 1; b < gpus; b++ {
					if rng.Intn(3) > 0 {
						sp.NVLink[Pair{a, b}] = props()
					}
				}
			}
			for a := 0; a < numas; a++ {
				for b := a + 1; b < numas; b++ {
					sp.Inter[Pair{a, b}] = props()
				}
			}
			if err := sp.Validate(); err != nil {
				// Randomized shapes can be invalid (e.g. a GPU without any
				// path); only valid specs are subject to the contract.
				continue
			}
			check(t, sp)
		}
	})
}
