package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// specJSON is the serialized topology format. Bandwidths are in GB/s and
// latencies in microseconds — the units vendor documentation quotes — so
// hand-written files stay legible; they are converted on load.
type specJSON struct {
	Name    string `json:"name"`
	GPUs    int    `json:"gpus"`
	NUMAs   int    `json:"numas"`
	GPUNuma []int  `json:"gpu_numa"`
	// NVLink entries connect GPU pairs.
	NVLink []linkJSON `json:"nvlink"`
	// PCIe is per GPU (single entry replicates to all GPUs).
	PCIe []propsJSON `json:"pcie"`
	// Mem is per NUMA domain (single entry replicates).
	Mem []propsJSON `json:"mem"`
	// Inter entries connect NUMA pairs.
	Inter []linkJSON `json:"inter"`

	GPUSyncOverheadUs  float64 `json:"gpu_sync_overhead_us"`
	HostSyncOverheadUs float64 `json:"host_sync_overhead_us"`
	// ShardHint is the 1-based preferred shard for fleet builds
	// (0 / omitted = no preference).
	ShardHint int `json:"shard_hint,omitempty"`
}

type linkJSON struct {
	A int `json:"a"`
	B int `json:"b"`
	propsJSON
}

type propsJSON struct {
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	LatencyUs     float64 `json:"latency_us"`
}

func (p propsJSON) toProps() LinkProps {
	return LinkProps{Bandwidth: p.BandwidthGBps * GBps, Latency: p.LatencyUs * 1e-6}
}

// SpecFromJSON parses a topology description. Single-entry PCIe or Mem
// lists are replicated across all GPUs / NUMA domains, at most MaxDevices
// of each. The result is validated before being returned.
func SpecFromJSON(r io.Reader) (*Spec, error) {
	var sj specJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("hw: decode topology: %w", err)
	}
	// The counts decide how far single entries replicate: bound them
	// before anything is allocated from them.
	if err := checkCounts(sj.Name, sj.GPUs, sj.NUMAs); err != nil {
		return nil, err
	}
	sp := &Spec{
		Name:             sj.Name,
		GPUs:             sj.GPUs,
		NUMAs:            sj.NUMAs,
		GPUNuma:          sj.GPUNuma,
		NVLink:           make(map[Pair]LinkProps, len(sj.NVLink)),
		Inter:            make(map[Pair]LinkProps, len(sj.Inter)),
		GPUSyncOverhead:  sj.GPUSyncOverheadUs * 1e-6,
		HostSyncOverhead: sj.HostSyncOverheadUs * 1e-6,
		ShardHint:        sj.ShardHint,
	}
	for _, l := range sj.NVLink {
		sp.NVLink[MakePair(l.A, l.B)] = l.toProps()
	}
	for _, l := range sj.Inter {
		sp.Inter[MakePair(l.A, l.B)] = l.toProps()
	}
	switch len(sj.PCIe) {
	case sj.GPUs:
		for _, p := range sj.PCIe {
			sp.PCIe = append(sp.PCIe, p.toProps())
		}
	case 1:
		for i := 0; i < sj.GPUs; i++ {
			sp.PCIe = append(sp.PCIe, sj.PCIe[0].toProps())
		}
	default:
		return nil, fmt.Errorf("hw: pcie has %d entries, want 1 or %d", len(sj.PCIe), sj.GPUs)
	}
	switch len(sj.Mem) {
	case sj.NUMAs:
		for _, m := range sj.Mem {
			sp.Mem = append(sp.Mem, m.toProps())
		}
	case 1:
		for i := 0; i < sj.NUMAs; i++ {
			sp.Mem = append(sp.Mem, sj.Mem[0].toProps())
		}
	default:
		return nil, fmt.Errorf("hw: mem has %d entries, want 1 or %d", len(sj.Mem), sj.NUMAs)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// WriteJSON serializes a spec in the SpecFromJSON format.
func (sp *Spec) WriteJSON(w io.Writer) error {
	sj := specJSON{
		Name:               sp.Name,
		GPUs:               sp.GPUs,
		NUMAs:              sp.NUMAs,
		GPUNuma:            sp.GPUNuma,
		GPUSyncOverheadUs:  canonicalUs(sp.GPUSyncOverhead),
		HostSyncOverheadUs: canonicalUs(sp.HostSyncOverhead),
		ShardHint:          sp.ShardHint,
	}
	for _, p := range nvlinkPairs(sp) {
		lp := sp.NVLink[p]
		sj.NVLink = append(sj.NVLink, linkJSON{A: p.A, B: p.B, propsJSON: fromProps(lp)})
	}
	for _, p := range interPairs(sp) {
		lp := sp.Inter[p]
		sj.Inter = append(sj.Inter, linkJSON{A: p.A, B: p.B, propsJSON: fromProps(lp)})
	}
	for _, lp := range sp.PCIe {
		sj.PCIe = append(sj.PCIe, fromProps(lp))
	}
	for _, lp := range sp.Mem {
		sj.Mem = append(sj.Mem, fromProps(lp))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sj)
}

func fromProps(lp LinkProps) propsJSON {
	return propsJSON{
		BandwidthGBps: canonical(lp.Bandwidth/GBps, func(g float64) float64 { return (g * GBps) / GBps }),
		LatencyUs:     canonicalUs(lp.Latency),
	}
}

// canonicalUs emits a seconds value in microseconds, stabilized against
// the parser's µs→s conversion (the same double-rounding concern as
// fromProps; sync overheads share the latency unit convention).
func canonicalUs(seconds float64) float64 {
	return canonical(seconds*1e6, func(u float64) float64 { return (u * 1e-6) * 1e6 })
}

// canonical iterates a written unit value to a stable point of one
// load/store round trip. WriteJSON emits values in display units (GB/s,
// µs); SpecFromJSON converts them back to base units, and a later
// WriteJSON converts to display units again. Each conversion rounds, so a
// raw quotient like bw/1e9 is not always reproduced by ((bw/1e9)*1e9)/1e9
// — the second write could differ in the last ulp and hot-reload files
// would drift. Emitting a stable point of the round-trip map instead makes
// WriteJSON → SpecFromJSON → WriteJSON byte-stable by construction: the
// value written is exactly the value a reload writes again. Most inputs
// reach a fixed point in one or two steps; the remaining inputs fall into
// a period-2 orbit {a, b} (double rounding flips the last ulp back and
// forth), where both writers deterministically pick the smaller member —
// a reload of min(a, b) re-enters the same orbit and picks the same
// member again. Either way the emitted value is within one ulp of the raw
// quotient — far below link-spec precision.
func canonical(v float64, roundTrip func(float64) float64) float64 {
	prev := math.NaN()
	for i := 0; i < 8; i++ {
		next := roundTrip(v)
		if next == v {
			return v
		}
		if next == prev {
			return math.Min(prev, v)
		}
		prev = v
		v = next
	}
	return v
}
