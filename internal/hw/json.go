package hw

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// specJSON is the serialized topology format. Bandwidths are in GB/s and
// latencies in microseconds — the units vendor documentation quotes — so
// hand-written files stay legible. Each value is kept as its decimal text
// (unitNum), and a unit conversion moves the decimal exponent, so a
// document written by WriteJSON loads back bit for bit.
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

	GPUSyncOverheadUs  unitNum `json:"gpu_sync_overhead_us"`
	HostSyncOverheadUs unitNum `json:"host_sync_overhead_us"`
}

type linkJSON struct {
	A int `json:"a"`
	B int `json:"b"`
	propsJSON
}

type propsJSON struct {
	BandwidthGBps unitNum `json:"bandwidth_gbps"`
	LatencyUs     unitNum `json:"latency_us"`
}

// Decimal exponents of the document units in base units: a microsecond
// is 1e-6 s and a GB/s is 1e9 B/s (GBps).
const (
	usExp   = -6
	gbpsExp = 9
)

// unitNum is a JSON number in a document unit, kept as its decimal text.
// The empty text (field omitted or null) reads as 0.
type unitNum string

// UnmarshalJSON takes a number literal as it stands; any other JSON value
// but null is refused.
func (u *unitNum) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if b[0] != '-' && (b[0] < '0' || b[0] > '9') {
		return fmt.Errorf("hw: %s is not a number", b)
	}
	*u = unitNum(b)
	return nil
}

// MarshalJSON writes the text as it stands.
func (u unitNum) MarshalJSON() ([]byte, error) { return []byte(u), nil }

// base reads the number in base units, where one document unit is
// 10^exp base units: the exponent moves by exp in the text, and the result
// is rounded once, by strconv.ParseFloat.
func (u unitNum) base(key string, exp int) (float64, error) {
	if u == "" {
		return 0, nil
	}
	text := string(u)
	if i := strings.IndexAny(text, "eE"); i < 0 {
		text += "e" + strconv.Itoa(exp)
	} else if e, err := strconv.Atoi(text[i+1:]); err == nil {
		text = text[:i] + "e" + strconv.Itoa(e+exp)
	}
	// An exponent past the int range stays as it is: strconv saturates
	// exponents long before that, so the shift could not change the result.
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0, fmt.Errorf("hw: %s %s is out of range", key, u)
	}
	return v, nil
}

// toUnit writes v base units in a document unit of 10^exp base units: the
// shortest digits that read back as v, with the decimal exponent moved by
// -exp, printed like encoding/json prints a float.
func toUnit(v float64, exp int) unitNum {
	if v == 0 {
		return unitNum(strconv.FormatFloat(v, 'g', -1, 64)) // 0 or -0
	}
	s := strconv.FormatFloat(v, 'e', -1, 64) // [-]d[.ddd]e±xx
	i := strings.IndexByte(s, 'e')
	if i < 0 {
		return unitNum(s) // NaN or Inf: the encoder refuses it
	}
	e, _ := strconv.Atoi(s[i+1:])
	e -= exp
	if e < -6 || e >= 21 {
		return unitNum(fmt.Sprintf("%se%+d", s[:i], e))
	}
	sign, digits := "", strings.Replace(s[:i], ".", "", 1)
	if digits[0] == '-' {
		sign, digits = "-", digits[1:]
	}
	switch {
	case e < 0:
		return unitNum(sign + "0." + strings.Repeat("0", -e-1) + digits)
	case len(digits) <= e+1:
		return unitNum(sign + digits + strings.Repeat("0", e+1-len(digits)))
	default:
		return unitNum(sign + digits[:e+1] + "." + digits[e+1:])
	}
}

func (p propsJSON) toProps() (LinkProps, error) {
	bw, err := p.BandwidthGBps.base("bandwidth_gbps", gbpsExp)
	if err != nil {
		return LinkProps{}, err
	}
	lat, err := p.LatencyUs.base("latency_us", usExp)
	return LinkProps{Bandwidth: bw, Latency: lat}, err
}

func fromProps(lp LinkProps) propsJSON {
	return propsJSON{BandwidthGBps: toUnit(lp.Bandwidth, gbpsExp), LatencyUs: toUnit(lp.Latency, usExp)}
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
		Name:    sj.Name,
		GPUs:    sj.GPUs,
		NUMAs:   sj.NUMAs,
		GPUNuma: sj.GPUNuma,
		NVLink:  make(map[Pair]LinkProps, len(sj.NVLink)),
		Inter:   make(map[Pair]LinkProps, len(sj.Inter)),
	}
	var err error
	if sp.GPUSyncOverhead, err = sj.GPUSyncOverheadUs.base("gpu_sync_overhead_us", usExp); err != nil {
		return nil, err
	}
	if sp.HostSyncOverhead, err = sj.HostSyncOverheadUs.base("host_sync_overhead_us", usExp); err != nil {
		return nil, err
	}
	for _, l := range sj.NVLink {
		if sp.NVLink[MakePair(l.A, l.B)], err = l.toProps(); err != nil {
			return nil, err
		}
	}
	for _, l := range sj.Inter {
		if sp.Inter[MakePair(l.A, l.B)], err = l.toProps(); err != nil {
			return nil, err
		}
	}
	if sp.PCIe, err = perDevice("pcie", sj.PCIe, sj.GPUs); err != nil {
		return nil, err
	}
	if sp.Mem, err = perDevice("mem", sj.Mem, sj.NUMAs); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// perDevice converts a list with one entry per device, or a single entry
// that stands for all n devices.
func perDevice(key string, list []propsJSON, n int) ([]LinkProps, error) {
	if len(list) != n && len(list) != 1 {
		return nil, fmt.Errorf("hw: %s has %d entries, want 1 or %d", key, len(list), n)
	}
	out := make([]LinkProps, len(list), n)
	for i, p := range list {
		var err error
		if out[i], err = p.toProps(); err != nil {
			return nil, err
		}
	}
	for len(out) < n {
		out = append(out, out[0])
	}
	return out, nil
}

// WriteJSON serializes a spec in the SpecFromJSON format. SpecFromJSON
// reads the document back bit for bit.
func (sp *Spec) WriteJSON(w io.Writer) error {
	sj := specJSON{
		Name:               sp.Name,
		GPUs:               sp.GPUs,
		NUMAs:              sp.NUMAs,
		GPUNuma:            sp.GPUNuma,
		GPUSyncOverheadUs:  toUnit(sp.GPUSyncOverhead, usExp),
		HostSyncOverheadUs: toUnit(sp.HostSyncOverhead, usExp),
	}
	for _, p := range nvlinkPairs(sp) {
		sj.NVLink = append(sj.NVLink, linkJSON{A: p.A, B: p.B, propsJSON: fromProps(sp.NVLink[p])})
	}
	for _, p := range interPairs(sp) {
		sj.Inter = append(sj.Inter, linkJSON{A: p.A, B: p.B, propsJSON: fromProps(sp.Inter[p])})
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
