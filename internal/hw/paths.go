package hw

import "fmt"

// PathKind classifies the three path classes of §3.1.
type PathKind int

const (
	// Direct is the single-hop GPU-to-GPU path over NVLink.
	Direct PathKind = iota
	// GPUStaged stages data through an intermediate GPU.
	GPUStaged
	// HostStaged stages data through pinned host memory.
	HostStaged
)

// String implements fmt.Stringer.
func (k PathKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case GPUStaged:
		return "gpu-staged"
	case HostStaged:
		return "host-staged"
	default:
		return fmt.Sprintf("PathKind(%d)", int(k))
	}
}

// ParsePathKind maps a path-class name ("direct", "gpu-staged",
// "host-staged") back to its PathKind — the inverse of String, used by
// wire layers that carry kinds as text.
func ParsePathKind(s string) (PathKind, error) {
	switch s {
	case "direct":
		return Direct, nil
	case "gpu-staged":
		return GPUStaged, nil
	case "host-staged":
		return HostStaged, nil
	}
	return 0, fmt.Errorf("hw: unknown path kind %q", s)
}

// MarshalText makes PathKind serialize by name, so JSON maps keyed by
// path kind read "direct"/"gpu-staged"/"host-staged" instead of raw ints
// (encoding/json sorts such keys by their text — still deterministic).
func (k PathKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the textual form written by MarshalText.
func (k *PathKind) UnmarshalText(text []byte) error {
	parsed, err := ParsePathKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Path identifies one candidate route for a multi-path transfer from Src
// to Dst. Via is the staging GPU index for GPUStaged paths and the staging
// NUMA domain for HostStaged paths; it is unused for Direct.
type Path struct {
	Kind PathKind
	Src  int
	Dst  int
	Via  int
}

// String renders a compact label such as "direct", "via-gpu2", "via-host".
func (p Path) String() string {
	switch p.Kind {
	case Direct:
		return "direct"
	case GPUStaged:
		return fmt.Sprintf("via-gpu%d", p.Via)
	case HostStaged:
		return "via-host"
	default:
		return p.Kind.String()
	}
}

// PathSet selects which path classes to enumerate.
type PathSet struct {
	// MaxGPUStaged limits the number of GPU-staged paths (0 = none,
	// negative = all available).
	MaxGPUStaged int
	// IncludeHost adds the host-staged path.
	IncludeHost bool
}

// Common path-set configurations matching the paper's labels.
var (
	// DirectOnly is the single-path baseline.
	DirectOnly = PathSet{MaxGPUStaged: 0, IncludeHost: false}
	// TwoGPUs is "2_GPUs": direct + one GPU-staged path.
	TwoGPUs = PathSet{MaxGPUStaged: 1, IncludeHost: false}
	// ThreeGPUs is "3_GPUs": direct + two GPU-staged paths.
	ThreeGPUs = PathSet{MaxGPUStaged: 2, IncludeHost: false}
	// ThreeGPUsWithHost is "3_GPUs_w_host": direct + two GPU-staged +
	// host-staged.
	ThreeGPUsWithHost = PathSet{MaxGPUStaged: 2, IncludeHost: true}
	// AllPaths enumerates every available path.
	AllPaths = PathSet{MaxGPUStaged: -1, IncludeHost: true}
)

// EnumeratePaths lists candidate paths from src to dst under the given
// selection, in the order the runtime initiates them: direct first, then
// GPU-staged (by staging GPU index), then host-staged. A GPU-staged path
// requires NVLink on both legs. It returns an error if src and dst have no
// direct link (the engine requires the direct path).
func (sp *Spec) EnumeratePaths(src, dst int, sel PathSet) ([]Path, error) {
	if src == dst {
		return nil, fmt.Errorf("hw: src and dst are the same GPU %d", src)
	}
	if src < 0 || src >= sp.GPUs || dst < 0 || dst >= sp.GPUs {
		return nil, fmt.Errorf("hw: GPU index out of range (src=%d dst=%d, GPUs=%d)", src, dst, sp.GPUs)
	}
	if !sp.HasNVLink(src, dst) {
		return nil, fmt.Errorf("hw: no direct NVLink between GPU %d and GPU %d", src, dst)
	}
	paths := []Path{{Kind: Direct, Src: src, Dst: dst}}
	staged := 0
	for g := 0; g < sp.GPUs && (sel.MaxGPUStaged < 0 || staged < sel.MaxGPUStaged); g++ {
		if g == src || g == dst {
			continue
		}
		if sp.HasNVLink(src, g) && sp.HasNVLink(g, dst) {
			paths = append(paths, Path{Kind: GPUStaged, Src: src, Dst: dst, Via: g})
			staged++
		}
	}
	if sel.IncludeHost {
		paths = append(paths, Path{Kind: HostStaged, Src: src, Dst: dst, Via: sp.StagingNUMA(src, dst)})
	}
	return paths, nil
}

// Paths is EnumeratePaths served from the node's per-pair cache: a pair's
// AllPaths enumeration is computed on first use and published atomically,
// and every selection that is a prefix of it (any selection without the
// host path, or with every GPU-staged path) is returned as a
// capacity-capped sub-slice of the cache. Callers must not write the
// returned elements; appending copies. Safe for concurrent use.
func (n *Node) Paths(src, dst int, sel PathSet) ([]Path, error) {
	sp := n.Spec
	if src == dst || src < 0 || src >= sp.GPUs || dst < 0 || dst >= sp.GPUs {
		return sp.EnumeratePaths(src, dst, sel)
	}
	ps, err := n.allPaths(src, dst)
	if err != nil {
		return nil, err
	}
	staged := len(ps) - 2 // ps is direct, every GPU-staged path, host
	m := sel.MaxGPUStaged
	if m < 0 || m > staged {
		m = staged
	}
	switch {
	case !sel.IncludeHost:
		return ps[: 1+m : 1+m], nil
	case m == staged:
		return ps, nil
	default:
		// Direct, the first m GPU-staged paths, then host: not a prefix.
		return sp.EnumeratePaths(src, dst, sel)
	}
}

// pathList is one published entry of the node's path cache.
type pathList struct{ paths []Path }

// allPaths returns the pair's AllPaths enumeration, capacity-capped,
// computing and publishing it on first use.
func (n *Node) allPaths(src, dst int) ([]Path, error) {
	slot := &n.paths[src*n.Spec.GPUs+dst]
	if cached := slot.Load(); cached != nil {
		return cached.paths, nil
	}
	ps, err := n.Spec.EnumeratePaths(src, dst, AllPaths)
	if err != nil {
		return nil, err
	}
	ps = ps[:len(ps):len(ps)]
	slot.Store(&pathList{paths: ps})
	return ps, nil
}

// Legs returns the route(s) a path traverses: one leg for Direct, two legs
// (src→staging, staging→dst) for staged paths.
func (n *Node) Legs(p Path) ([]Route, error) {
	switch p.Kind {
	case Direct:
		r, ok := n.GPUToGPU(p.Src, p.Dst)
		if !ok {
			return nil, fmt.Errorf("hw: no direct link %d->%d", p.Src, p.Dst)
		}
		return []Route{r}, nil
	case GPUStaged:
		r1, ok1 := n.GPUToGPU(p.Src, p.Via)
		r2, ok2 := n.GPUToGPU(p.Via, p.Dst)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hw: gpu-staged path %d->%d->%d missing a link", p.Src, p.Via, p.Dst)
		}
		return []Route{r1, r2}, nil
	case HostStaged:
		m := p.Via
		return []Route{n.GPUToHost(p.Src, m), n.HostToGPU(m, p.Dst)}, nil
	default:
		return nil, fmt.Errorf("hw: unknown path kind %v", p.Kind)
	}
}

// Epsilon returns the per-chunk staging synchronization overhead ε for the
// path: zero for direct, the GPU event-sync cost for GPU-staged, and the
// host-sync cost for host-staged.
func (n *Node) Epsilon(p Path) float64 {
	switch p.Kind {
	case GPUStaged:
		return n.Spec.GPUSyncOverhead
	case HostStaged:
		return n.Spec.HostSyncOverhead
	default:
		return 0
	}
}
