// Package hw describes multi-GPU node hardware: GPUs, NUMA domains,
// NVLink / PCIe / inter-socket links, and host memory channels. A Spec is
// a declarative description; Build realizes it as a fluid-flow network
// whose links carry simulated transfers.
//
// The package also enumerates the communication paths the paper's model
// reasons about: the direct GPU-to-GPU path, GPU-staged paths through an
// intermediate GPU, and host-staged paths through host memory (§3.1 of the
// paper).
package hw

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/fluid"
	"repro/internal/sim"
)

// Byte-size and rate units. Message sizes follow OSU conventions (powers
// of two), bandwidths use decimal GB/s as in vendor link specs.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	GBps = 1e9 // bytes per second
)

// LinkProps are the Hockney parameters of one physical link direction:
// sustained bandwidth in bytes/second and startup latency in seconds.
type LinkProps struct {
	Bandwidth float64
	Latency   float64
}

// Pair is an unordered pair of small indices (GPU or NUMA ids).
type Pair struct{ A, B int }

// MakePair normalizes the order so Pair{1,0} == Pair{0,1}.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Spec declaratively describes a node topology.
type Spec struct {
	Name string
	GPUs int
	// NUMAs is the number of NUMA domains holding host memory.
	NUMAs int
	// GPUNuma maps each GPU to its NUMA domain (PCIe attachment point).
	GPUNuma []int
	// NVLink gives per-direction properties of the aggregate NVLink
	// connection between a GPU pair. Pairs without an entry have no
	// direct link.
	NVLink map[Pair]LinkProps
	// PCIe gives per-GPU, per-direction host link properties.
	PCIe []LinkProps
	// Mem gives each NUMA domain's host memory channel. The channel is a
	// single shared resource: traffic into and out of host memory contends
	// on it, which is what degrades bidirectional host-staged transfers.
	Mem []LinkProps
	// Inter gives per-direction properties of inter-NUMA links (UPI/xGMI).
	// Pairs without an entry are routed through intermediate NUMA domains
	// only if present; we require direct entries for all pairs that need
	// to communicate.
	Inter map[Pair]LinkProps
	// GPUSyncOverhead is epsilon for a stream-event synchronization on a
	// staging GPU (paper's ε for GPU-staged paths).
	GPUSyncOverhead float64
	// HostSyncOverhead is epsilon for synchronizing a host-staged chunk.
	HostSyncOverhead float64
}

// MaxDevices caps a topology's GPU count and its NUMA domain count. It
// sits well above every preset (8 GPUs at most) and bounds what an
// untrusted topology document can make the loader replicate and Build lay
// out (routes grow with GPUs²).
const MaxDevices = 128

// checkCounts bounds a topology's GPU and NUMA domain counts.
func checkCounts(name string, gpus, numas int) error {
	if gpus < 2 {
		return fmt.Errorf("hw: topology %q needs at least 2 GPUs, has %d", name, gpus)
	}
	if numas < 1 {
		return fmt.Errorf("hw: topology %q needs at least 1 NUMA domain", name)
	}
	if gpus > MaxDevices || numas > MaxDevices {
		return fmt.Errorf("hw: topology %q has %d GPUs and %d NUMA domains, at most %d of each",
			name, gpus, numas, MaxDevices)
	}
	return nil
}

// Validate checks internal consistency of the spec.
func (sp *Spec) Validate() error {
	if err := checkCounts(sp.Name, sp.GPUs, sp.NUMAs); err != nil {
		return err
	}
	if len(sp.GPUNuma) != sp.GPUs {
		return fmt.Errorf("hw: GPUNuma has %d entries, want %d", len(sp.GPUNuma), sp.GPUs)
	}
	for g, nm := range sp.GPUNuma {
		if nm < 0 || nm >= sp.NUMAs {
			return fmt.Errorf("hw: GPU %d mapped to invalid NUMA %d", g, nm)
		}
	}
	if len(sp.PCIe) != sp.GPUs {
		return fmt.Errorf("hw: PCIe has %d entries, want %d", len(sp.PCIe), sp.GPUs)
	}
	if len(sp.Mem) != sp.NUMAs {
		return fmt.Errorf("hw: Mem has %d entries, want %d", len(sp.Mem), sp.NUMAs)
	}
	// Iterate sorted keys so that with several bad entries the same one is
	// reported every run (map iteration order is randomized).
	for _, p := range sortedPairs(sp.NVLink) {
		if p.A < 0 || p.B >= sp.GPUs || p.A >= p.B {
			return fmt.Errorf("hw: bad NVLink pair %v", p)
		}
		if err := sp.NVLink[p].validate(); err != nil {
			return fmt.Errorf("hw: NVLink pair %v: %w", p, err)
		}
	}
	for g, lp := range sp.PCIe {
		if err := lp.validate(); err != nil {
			return fmt.Errorf("hw: PCIe GPU %d: %w", g, err)
		}
	}
	for m, lp := range sp.Mem {
		if err := lp.validate(); err != nil {
			return fmt.Errorf("hw: Mem NUMA %d: %w", m, err)
		}
	}
	for _, p := range sortedPairs(sp.Inter) {
		if p.A < 0 || p.B >= sp.NUMAs || p.A >= p.B {
			return fmt.Errorf("hw: bad Inter pair %v", p)
		}
		if err := sp.Inter[p].validate(); err != nil {
			return fmt.Errorf("hw: Inter pair %v: %w", p, err)
		}
	}
	// A host-staged path between NVLink peers stages through one GPU's
	// NUMA domain, so it needs an Inter link whenever the peers sit in two
	// domains; without one, planning such a pair could not build the path.
	for _, p := range sortedPairs(sp.NVLink) {
		a, b := sp.GPUNuma[p.A], sp.GPUNuma[p.B]
		if _, ok := sp.Inter[MakePair(a, b)]; a != b && !ok {
			return fmt.Errorf("hw: NVLink pair %v spans NUMA domains %d and %d with no Inter link between them", p, a, b)
		}
	}
	if sp.GPUSyncOverhead < 0 || sp.HostSyncOverhead < 0 {
		return fmt.Errorf("hw: topology %q has negative sync overhead", sp.Name)
	}
	return nil
}

// sortedPairs returns m's keys ordered by (A, B), giving validation a
// deterministic traversal of pairwise link maps.
func sortedPairs(m map[Pair]LinkProps) []Pair {
	ps := make([]Pair, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return ps
}

// validate rejects non-positive bandwidths and negative latencies — bad
// hand-written JSON topologies fail at load instead of producing silently
// nonsensical plans.
func (lp LinkProps) validate() error {
	// fluid.AddLink refuses an infinite bandwidth with a panic.
	if !(lp.Bandwidth > 0) || math.IsInf(lp.Bandwidth, 1) {
		return fmt.Errorf("bandwidth %v is not positive and finite", lp.Bandwidth)
	}
	if lp.Latency < 0 {
		return fmt.Errorf("negative latency %v", lp.Latency)
	}
	return nil
}

// HasNVLink reports whether GPUs a and b share a direct link.
func (sp *Spec) HasNVLink(a, b int) bool {
	_, ok := sp.NVLink[MakePair(a, b)]
	return ok
}

// Node is a realized topology: a fluid network plus named link handles.
type Node struct {
	Spec *Spec
	Net  *fluid.Network

	nvl      map[[2]int]*fluid.Link // directed GPU->GPU
	pcieUp   []*fluid.Link          // GPU -> host complex
	pcieDown []*fluid.Link          // host complex -> GPU
	mem      []*fluid.Link          // shared per-NUMA memory channel
	inter    map[[2]int]*fluid.Link // directed NUMA->NUMA

	// Routes are laid out once at build: link slices (capacity-capped and
	// shared by every caller, who must not write them) and summed
	// latencies. Route bandwidth is still read live from link capacities.
	// routes holds GPU->GPU routes at src*GPUs+dst, then GPU->host routes
	// at hostUp+gpu*NUMAs+m, then host->GPU routes at hostDown+m*GPUs+gpu;
	// a route with no links does not exist (no NVLink, no inter-NUMA link).
	routes           []routeLinks
	hostUp, hostDown int
	// paths caches each ordered GPU pair's AllPaths enumeration, filled
	// on first use (see Paths).
	paths []atomic.Pointer[pathList]
}

// routeLinks is a prebuilt route minus its live bandwidth.
type routeLinks struct {
	links []*fluid.Link
	lat   float64
}

// Build realizes the spec on a fresh fluid network bound to s.
func Build(s *sim.Simulator, sp *Spec) (*Node, error) {
	return BuildInto(fluid.NewNetwork(s), sp, "")
}

// BuildInto realizes the spec on an existing network, prefixing link
// names (used to compose several nodes into one cluster-wide network).
func BuildInto(net *fluid.Network, sp *Spec, prefix string) (*Node, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		Spec:     sp,
		Net:      net,
		nvl:      make(map[[2]int]*fluid.Link),
		pcieUp:   make([]*fluid.Link, sp.GPUs),
		pcieDown: make([]*fluid.Link, sp.GPUs),
		mem:      make([]*fluid.Link, sp.NUMAs),
		inter:    make(map[[2]int]*fluid.Link),
	}
	for _, p := range nvlinkPairs(sp) {
		lp := sp.NVLink[p]
		n.nvl[[2]int{p.A, p.B}] = net.AddLink(fmt.Sprintf("%snvlink:%d->%d", prefix, p.A, p.B), lp.Bandwidth)
		n.nvl[[2]int{p.B, p.A}] = net.AddLink(fmt.Sprintf("%snvlink:%d->%d", prefix, p.B, p.A), lp.Bandwidth)
	}
	for g := 0; g < sp.GPUs; g++ {
		n.pcieUp[g] = net.AddLink(fmt.Sprintf("%spcie:%d->host", prefix, g), sp.PCIe[g].Bandwidth)
		n.pcieDown[g] = net.AddLink(fmt.Sprintf("%spcie:host->%d", prefix, g), sp.PCIe[g].Bandwidth)
	}
	for m := 0; m < sp.NUMAs; m++ {
		n.mem[m] = net.AddLink(fmt.Sprintf("%smem:%d", prefix, m), sp.Mem[m].Bandwidth)
	}
	for _, p := range interPairs(sp) {
		lp := sp.Inter[p]
		n.inter[[2]int{p.A, p.B}] = net.AddLink(fmt.Sprintf("%sinter:%d->%d", prefix, p.A, p.B), lp.Bandwidth)
		n.inter[[2]int{p.B, p.A}] = net.AddLink(fmt.Sprintf("%sinter:%d->%d", prefix, p.B, p.A), lp.Bandwidth)
	}
	n.buildRoutes()
	return n, nil
}

// buildRoutes lays out every GPU-GPU and GPU-host route of the node, all
// link slices carved from one backing array.
func (n *Node) buildRoutes() {
	sp := n.Spec
	g, m := sp.GPUs, sp.NUMAs
	n.hostUp, n.hostDown = g*g, g*g+g*m
	n.routes = make([]routeLinks, g*g+2*g*m)
	n.paths = make([]atomic.Pointer[pathList], g*g)
	backing := make([]*fluid.Link, 0, len(n.nvl)+6*g*m)
	carve := func(links ...*fluid.Link) []*fluid.Link {
		start := len(backing)
		backing = append(backing, links...)
		return backing[start:len(backing):len(backing)]
	}
	for src := 0; src < g; src++ {
		for dst := 0; dst < g; dst++ {
			if l, ok := n.nvl[[2]int{src, dst}]; ok {
				n.routes[src*g+dst] = routeLinks{carve(l), sp.NVLink[MakePair(src, dst)].Latency}
			}
		}
	}
	for gpu := 0; gpu < g; gpu++ {
		gn := sp.GPUNuma[gpu]
		for numa := 0; numa < m; numa++ {
			up := routeLinks{lat: sp.PCIe[gpu].Latency + sp.Mem[numa].Latency}
			down := routeLinks{lat: sp.Mem[numa].Latency + sp.PCIe[gpu].Latency}
			if gn == numa {
				up.links = carve(n.pcieUp[gpu], n.mem[numa])
				down.links = carve(n.mem[numa], n.pcieDown[gpu])
			} else {
				if il, ok := n.inter[[2]int{gn, numa}]; ok {
					up.links = carve(n.pcieUp[gpu], il, n.mem[numa])
					up.lat += sp.Inter[MakePair(gn, numa)].Latency
				}
				if il, ok := n.inter[[2]int{numa, gn}]; ok {
					down.links = carve(n.mem[numa], il, n.pcieDown[gpu])
					down.lat += sp.Inter[MakePair(numa, gn)].Latency
				}
			}
			n.routes[n.hostUp+gpu*m+numa] = up
			n.routes[n.hostDown+numa*g+gpu] = down
		}
	}
}

// nvlinkPairs returns NVLink pairs in deterministic order.
func nvlinkPairs(sp *Spec) []Pair {
	var out []Pair
	for a := 0; a < sp.GPUs; a++ {
		for b := a + 1; b < sp.GPUs; b++ {
			if _, ok := sp.NVLink[Pair{a, b}]; ok {
				out = append(out, Pair{a, b})
			}
		}
	}
	return out
}

func interPairs(sp *Spec) []Pair {
	var out []Pair
	for a := 0; a < sp.NUMAs; a++ {
		for b := a + 1; b < sp.NUMAs; b++ {
			if _, ok := sp.Inter[Pair{a, b}]; ok {
				out = append(out, Pair{a, b})
			}
		}
	}
	return out
}

// Route is a unidirectional transfer route: fluid links traversed plus the
// summed startup latency of those hops.
type Route struct {
	Links   []*fluid.Link
	Latency float64
	// Bandwidth is the bottleneck (minimum) capacity along the route.
	Bandwidth float64
}

// MakeRoute builds a route from explicit links (used by extensions that
// compose routes across node boundaries, e.g. inter-node rails).
func MakeRoute(latency float64, links ...*fluid.Link) Route {
	return mkRoute(latency, links...)
}

// route completes a prebuilt route with its live bottleneck bandwidth.
func (rl routeLinks) route() Route { return mkRoute(rl.lat, rl.links...) }

func mkRoute(latency float64, links ...*fluid.Link) Route {
	bw := 0.0
	for i, l := range links {
		if i == 0 || l.Capacity() < bw {
			bw = l.Capacity()
		}
	}
	return Route{Links: links, Latency: latency, Bandwidth: bw}
}

// GPUToGPU returns the direct route between two GPUs over NVLink.
// ok is false when no direct link exists.
func (n *Node) GPUToGPU(src, dst int) (Route, bool) {
	g := n.Spec.GPUs
	if src < 0 || src >= g || dst < 0 || dst >= g {
		return Route{}, false
	}
	rl := n.routes[src*g+dst]
	if rl.links == nil {
		return Route{}, false
	}
	return rl.route(), true
}

// GPUToHost returns the route from a GPU into the memory of NUMA domain m.
func (n *Node) GPUToHost(gpu, m int) Route {
	n.checkHostRoute(gpu, m)
	rl := n.routes[n.hostUp+gpu*n.Spec.NUMAs+m]
	if rl.links == nil {
		// No direct inter-NUMA link. Validate rejects specs whose paths
		// would need one, so only a hand-picked route gets here.
		panic(fmt.Sprintf("hw: no inter-NUMA link %d->%d", n.Spec.GPUNuma[gpu], m))
	}
	return rl.route()
}

// HostToGPU returns the route from NUMA domain m's memory to a GPU.
func (n *Node) HostToGPU(m, gpu int) Route {
	n.checkHostRoute(gpu, m)
	rl := n.routes[n.hostDown+m*n.Spec.GPUs+gpu]
	if rl.links == nil {
		panic(fmt.Sprintf("hw: no inter-NUMA link %d->%d", m, n.Spec.GPUNuma[gpu]))
	}
	return rl.route()
}

// checkHostRoute panics on a GPU or NUMA index outside the node, which
// would otherwise select another pair's route from the flat table.
func (n *Node) checkHostRoute(gpu, m int) {
	if gpu < 0 || gpu >= n.Spec.GPUs || m < 0 || m >= n.Spec.NUMAs {
		panic(fmt.Sprintf("hw: host route GPU %d NUMA %d out of range (%d GPUs, %d NUMA domains)", gpu, m, n.Spec.GPUs, n.Spec.NUMAs))
	}
}

// MemLink exposes the shared memory-channel link of a NUMA domain
// (useful for utilization reporting).
func (n *Node) MemLink(m int) *fluid.Link { return n.mem[m] }

// NVLinkHandle exposes the directed NVLink fluid link between two GPUs.
func (n *Node) NVLinkHandle(src, dst int) (*fluid.Link, bool) {
	l, ok := n.nvl[[2]int{src, dst}]
	return l, ok
}

// PCIeUp and PCIeDown expose per-GPU host links.
func (n *Node) PCIeUp(gpu int) *fluid.Link   { return n.pcieUp[gpu] }
func (n *Node) PCIeDown(gpu int) *fluid.Link { return n.pcieDown[gpu] }

// StagingNUMA picks the NUMA domain used for a host-staged transfer
// between src and dst GPUs. The pinned staging region for a GPU pair is
// allocated once and shared by both directions (as the runtime's
// registration cache does), so the choice is symmetric: the domain of the
// lower-numbered GPU. Both directions of a bidirectional transfer
// therefore stage through the same memory channel, which is what makes
// host staging contend under BIBW (Observation 5).
func (n *Node) StagingNUMA(src, dst int) int { return n.Spec.StagingNUMA(src, dst) }

// StagingNUMA is the spec-level staging-domain policy (see Node.StagingNUMA).
func (sp *Spec) StagingNUMA(src, dst int) int {
	g := src
	if dst < g {
		g = dst
	}
	return sp.GPUNuma[g]
}
