package hw

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for name, mk := range Presets {
		if err := mk().Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"too few gpus", func(s *Spec) { s.GPUs = 1 }},
		{"no numa", func(s *Spec) { s.NUMAs = 0 }},
		{"gpunuma len", func(s *Spec) { s.GPUNuma = s.GPUNuma[:2] }},
		{"gpunuma range", func(s *Spec) { s.GPUNuma[0] = 9 }},
		{"pcie len", func(s *Spec) { s.PCIe = s.PCIe[:1] }},
		{"mem len", func(s *Spec) { s.Mem = nil }},
		{"bad nvlink pair", func(s *Spec) { s.NVLink[Pair{2, 1}] = LinkProps{Bandwidth: 1} }},
		{"zero nvlink bw", func(s *Spec) { s.NVLink[Pair{0, 1}] = LinkProps{} }},
		{"too many gpus", func(s *Spec) {
			for len(s.GPUNuma) <= MaxDevices {
				s.GPUNuma = append(s.GPUNuma, 0)
				s.PCIe = append(s.PCIe, s.PCIe[0])
			}
			s.GPUs = len(s.GPUNuma)
		}},
		{"too many numas", func(s *Spec) {
			for len(s.Mem) <= MaxDevices {
				s.Mem = append(s.Mem, s.Mem[0])
			}
			s.NUMAs = len(s.Mem)
		}},
		{"nvlink peers across numa without inter", func(s *Spec) {
			s.NUMAs = 2
			s.GPUNuma = []int{0, 0, 1, 1}
			s.Mem = append(s.Mem, s.Mem[0])
		}},
	}
	for _, tc := range cases {
		sp := Synthetic()
		tc.mut(sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad spec", tc.name)
		}
	}
}

func TestMakePairNormalizes(t *testing.T) {
	if MakePair(3, 1) != (Pair{1, 3}) {
		t.Fatal("MakePair did not normalize")
	}
	if MakePair(1, 3) != (Pair{1, 3}) {
		t.Fatal("MakePair changed ordered input")
	}
}

func TestBuildCreatesLinks(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	// 6 NVLink pairs × 2 directions + 4 GPUs × 2 PCIe + 1 mem = 21 links.
	if got := len(n.Net.Links()); got != 21 {
		t.Fatalf("beluga links = %d, want 21", got)
	}
	sN := sim.New()
	nn, err := Build(sN, Narval())
	if err != nil {
		t.Fatal(err)
	}
	// 12 nvlink + 8 pcie + 4 mem + 6 inter pairs × 2 = 36 links.
	if got := len(nn.Net.Links()); got != 36 {
		t.Fatalf("narval links = %d, want 36", got)
	}
}

func TestDirectRoute(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := n.GPUToGPU(0, 1)
	if !ok {
		t.Fatal("no direct route 0->1 on beluga")
	}
	if len(r.Links) != 1 {
		t.Fatalf("direct route has %d links, want 1", len(r.Links))
	}
	if r.Bandwidth != 48*GBps {
		t.Fatalf("direct bandwidth = %v", r.Bandwidth)
	}
	if r.Latency != 2.0e-6 {
		t.Fatalf("direct latency = %v", r.Latency)
	}
}

func TestDirectionalLinksAreDistinct(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := n.NVLinkHandle(0, 1)
	r, _ := n.NVLinkHandle(1, 0)
	if f == r {
		t.Fatal("forward and reverse NVLink share a fluid link")
	}
}

func TestHostRoutesSameNUMA(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	up := n.GPUToHost(0, 0)
	if len(up.Links) != 2 { // pcie up + mem
		t.Fatalf("up route links = %d, want 2", len(up.Links))
	}
	down := n.HostToGPU(0, 1)
	if len(down.Links) != 2 { // mem + pcie down
		t.Fatalf("down route links = %d, want 2", len(down.Links))
	}
	if up.Bandwidth != 11*GBps {
		t.Fatalf("host route bottleneck = %v, want PCIe 11 GB/s", up.Bandwidth)
	}
}

func TestHostRoutesCrossNUMAOnNarval(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Narval())
	if err != nil {
		t.Fatal(err)
	}
	// Staging in GPU0's NUMA; down-leg to GPU1 crosses inter-NUMA fabric.
	m := n.StagingNUMA(0, 1)
	if m != 0 {
		t.Fatalf("staging NUMA = %d, want 0", m)
	}
	down := n.HostToGPU(m, 1)
	if len(down.Links) != 3 { // mem + inter + pcie down
		t.Fatalf("cross-NUMA down route links = %d, want 3", len(down.Links))
	}
	// Bottleneck is the inter-NUMA fabric (18 GB/s) vs mem 20, pcie 22.
	if down.Bandwidth != 18*GBps {
		t.Fatalf("cross-NUMA bottleneck = %v, want 18 GB/s", down.Bandwidth)
	}
	up := n.GPUToHost(0, m)
	if len(up.Links) != 2 {
		t.Fatalf("same-NUMA up route links = %d, want 2", len(up.Links))
	}
}

func TestEnumeratePathsSelections(t *testing.T) {
	sp := Beluga()
	cases := []struct {
		sel  PathSet
		want int
	}{
		{DirectOnly, 1},
		{TwoGPUs, 2},
		{ThreeGPUs, 3},
		{ThreeGPUsWithHost, 4},
		{AllPaths, 4},
	}
	for _, tc := range cases {
		ps, err := sp.EnumeratePaths(0, 1, tc.sel)
		if err != nil {
			t.Fatalf("sel %+v: %v", tc.sel, err)
		}
		if len(ps) != tc.want {
			t.Fatalf("sel %+v: got %d paths, want %d", tc.sel, len(ps), tc.want)
		}
		if ps[0].Kind != Direct {
			t.Fatalf("first path is %v, want direct", ps[0].Kind)
		}
	}
}

// TestNodePathsMatchEnumerate checks the node's path cache against
// Spec.EnumeratePaths for every GPU pair and selection, errors included,
// with several goroutines filling and reading the cache at once (mpserve
// plans concurrently). Appending to a returned slice must not write into
// the cache.
func TestNodePathsMatchEnumerate(t *testing.T) {
	gapped := Synthetic()
	delete(gapped.NVLink, Pair{0, 3})
	sels := []PathSet{DirectOnly, TwoGPUs, ThreeGPUs, ThreeGPUsWithHost, AllPaths,
		{MaxGPUStaged: 1, IncludeHost: true}, {MaxGPUStaged: 9, IncludeHost: true}}
	for _, sp := range []*Spec{Beluga(), Narval(), NVSwitchNode(), gapped} {
		node, err := Build(sim.New(), sp)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for src := -1; src <= sp.GPUs; src++ {
					for dst := -1; dst <= sp.GPUs; dst++ {
						for _, sel := range sels {
							want, wantErr := sp.EnumeratePaths(src, dst, sel)
							got, err := node.Paths(src, dst, sel)
							if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
								t.Errorf("%s %d->%d %+v: err %v, want %v", sp.Name, src, dst, sel, err, wantErr)
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s %d->%d %+v: paths %v, want %v", sp.Name, src, dst, sel, got, want)
							}
							_ = append(got, Path{Kind: HostStaged, Via: -1})
							if again, _ := node.Paths(src, dst, sel); !reflect.DeepEqual(again, want) {
								t.Errorf("%s %d->%d %+v: append to a result changed the cache: %v", sp.Name, src, dst, sel, again)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestEnumeratePathsOrdering(t *testing.T) {
	sp := Beluga()
	ps, err := sp.EnumeratePaths(0, 1, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	if ps[1].Kind != GPUStaged || ps[1].Via != 2 {
		t.Fatalf("second path = %+v, want via-gpu2", ps[1])
	}
	if ps[2].Kind != GPUStaged || ps[2].Via != 3 {
		t.Fatalf("third path = %+v, want via-gpu3", ps[2])
	}
	if ps[3].Kind != HostStaged {
		t.Fatalf("fourth path = %+v, want host-staged", ps[3])
	}
}

func TestEnumeratePathsErrors(t *testing.T) {
	sp := Beluga()
	if _, err := sp.EnumeratePaths(0, 0, AllPaths); err == nil {
		t.Error("same src/dst accepted")
	}
	if _, err := sp.EnumeratePaths(0, 7, AllPaths); err == nil {
		t.Error("out-of-range dst accepted")
	}
	// Remove the direct link and require an error.
	delete(sp.NVLink, Pair{0, 1})
	if _, err := sp.EnumeratePaths(0, 1, AllPaths); err == nil {
		t.Error("missing direct link accepted")
	}
}

func TestLegs(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	direct := Path{Kind: Direct, Src: 0, Dst: 1}
	legs, err := n.Legs(direct)
	if err != nil || len(legs) != 1 {
		t.Fatalf("direct legs = %v, err %v", legs, err)
	}
	staged := Path{Kind: GPUStaged, Src: 0, Dst: 1, Via: 2}
	legs, err = n.Legs(staged)
	if err != nil || len(legs) != 2 {
		t.Fatalf("staged legs = %v, err %v", legs, err)
	}
	host := Path{Kind: HostStaged, Src: 0, Dst: 1, Via: 0}
	legs, err = n.Legs(host)
	if err != nil || len(legs) != 2 {
		t.Fatalf("host legs = %v, err %v", legs, err)
	}
}

func TestEpsilon(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	if e := n.Epsilon(Path{Kind: Direct}); e != 0 {
		t.Fatalf("direct epsilon = %v", e)
	}
	if e := n.Epsilon(Path{Kind: GPUStaged}); e != 3.0e-6 {
		t.Fatalf("gpu-staged epsilon = %v", e)
	}
	if e := n.Epsilon(Path{Kind: HostStaged}); e != 5.0e-6 {
		t.Fatalf("host-staged epsilon = %v", e)
	}
}

func TestPathString(t *testing.T) {
	cases := map[string]Path{
		"direct":   {Kind: Direct},
		"via-gpu2": {Kind: GPUStaged, Via: 2},
		"via-host": {Kind: HostStaged, Via: 0},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("Path.String() = %q, want %q", got, want)
		}
	}
}

func TestSharedMemChannelOnBeluga(t *testing.T) {
	s := sim.New()
	n, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	up := n.GPUToHost(0, 0)
	down := n.HostToGPU(0, 1)
	if up.Links[len(up.Links)-1] != down.Links[0] {
		t.Fatal("up and down host routes do not share the memory channel")
	}
}
