package hw

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestInjectorDegradeChangesCapacity(t *testing.T) {
	s := sim.New()
	node, err := Build(s, Narval())
	if err != nil {
		t.Fatal(err)
	}
	var fp FaultPlan
	fp.Degrade(1e-3, NVLinkRef(0, 1), 0.5)
	inj, err := fp.Arm(node)
	if err != nil {
		t.Fatal(err)
	}
	link, err := node.ResolveLink(NVLinkRef(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := link.Capacity()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := link.Capacity(); got != before*0.5 {
		t.Fatalf("degraded capacity = %v, want %v", got, before*0.5)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", inj.Fired())
	}
	// The reverse direction is a distinct link and stays healthy.
	rev, _ := node.ResolveLink(NVLinkRef(1, 0))
	if rev.Capacity() != before {
		t.Fatalf("reverse link degraded too: %v", rev.Capacity())
	}
}

func TestInjectorFlapDownThenUp(t *testing.T) {
	s := sim.New()
	node, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	var fp FaultPlan
	fp.Flap(1.0, PCIeUpRef(2), 0.5)
	inj, err := fp.Arm(node)
	if err != nil {
		t.Fatal(err)
	}
	var seen []FaultKind
	inj.OnEvent(func(ev FaultEvent) { seen = append(seen, ev.Kind) })
	link := node.PCIeUp(2)
	s.Schedule(1.2, func() {
		if !link.Down() {
			t.Error("link should be down mid-flap")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if link.Down() {
		t.Fatal("link should be restored after the flap")
	}
	want := []FaultKind{FaultFlap, FaultRestore}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("events = %v, want %v", seen, want)
	}
}

func TestFaultPlanValidateRejectsBadRefs(t *testing.T) {
	sp := Beluga() // single NUMA: no inter links
	cases := []FaultPlan{
		{Events: []FaultEvent{{At: -1, Link: MemRef(0), Kind: FaultFail}}},
		{Events: []FaultEvent{{At: 0, Link: NVLinkRef(0, 9), Kind: FaultFail}}},
		{Events: []FaultEvent{{At: 0, Link: InterRef(0, 1), Kind: FaultFail}}},
		{Events: []FaultEvent{{At: 0, Link: MemRef(3), Kind: FaultFail}}},
		{Events: []FaultEvent{{At: 0, Link: NVLinkRef(0, 1), Kind: FaultDegrade, Factor: 0}}},
		{Events: []FaultEvent{{At: 0, Link: NVLinkRef(0, 1), Kind: FaultFlap, Duration: 0}}},
	}
	for i, fp := range cases {
		if err := fp.Validate(sp); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, fp.Events[0])
		}
	}
	var ok FaultPlan
	ok.Degrade(0, NVLinkRef(0, 1), 0.25).Flap(1, PCIeDownRef(0), 2).Fail(3, MemRef(0)).Restore(4, MemRef(0))
	if err := ok.Validate(sp); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestArmRejectsUnresolvableLink(t *testing.T) {
	s := sim.New()
	node, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	var fp FaultPlan
	fp.Fail(0, InterRef(0, 1))
	if _, err := fp.Arm(node); err == nil || !strings.Contains(err.Error(), "inter") {
		t.Fatalf("Arm should reject missing inter link, got %v", err)
	}
}

func TestAddRandomFlapsDeterministic(t *testing.T) {
	cands := []LinkRef{NVLinkRef(0, 1), NVLinkRef(1, 2), PCIeUpRef(0)}
	mk := func(seed uint64) []FaultEvent {
		fp := FaultPlan{Seed: seed}
		fp.AddRandomFlaps(cands, 8, 0.001, 0.01, 0.0005, 0.002)
		return fp.Events
	}
	a, b := mk(42), mk(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := mk(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) != 8 {
		t.Fatalf("got %d events, want 8", len(a))
	}
	for i, ev := range a {
		if ev.Kind != FaultFlap {
			t.Fatalf("event %d kind = %v", i, ev.Kind)
		}
		if ev.At < 0.001 || ev.At >= 0.011 {
			t.Fatalf("event %d time %v outside window", i, ev.At)
		}
		if ev.Duration < 0.0005 || ev.Duration >= 0.002 {
			t.Fatalf("event %d duration %v outside range", i, ev.Duration)
		}
	}
}

func TestInjectorCancel(t *testing.T) {
	s := sim.New()
	node, err := Build(s, Beluga())
	if err != nil {
		t.Fatal(err)
	}
	var fp FaultPlan
	fp.Fail(1.0, NVLinkRef(0, 1))
	inj, err := fp.Arm(node)
	if err != nil {
		t.Fatal(err)
	}
	inj.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	link, _ := node.ResolveLink(NVLinkRef(0, 1))
	if link.Down() || inj.Fired() != 0 {
		t.Fatal("canceled event still fired")
	}
}

func TestValidateRejectsNegativeProps(t *testing.T) {
	neg := func(mut func(*Spec)) error {
		sp := Beluga()
		mut(sp)
		return sp.Validate()
	}
	cases := map[string]func(*Spec){
		"nvlink latency": func(sp *Spec) {
			sp.NVLink[Pair{0, 1}] = LinkProps{Bandwidth: 1 * GBps, Latency: -1e-6}
		},
		"pcie bandwidth": func(sp *Spec) { sp.PCIe[0].Bandwidth = -5 },
		"mem bandwidth":  func(sp *Spec) { sp.Mem[0].Bandwidth = 0 },
		"inf bandwidth":  func(sp *Spec) { sp.PCIe[1].Bandwidth = math.Inf(1) },
		"mem latency":    func(sp *Spec) { sp.Mem[0].Latency = -0.5e-6 },
		"sync overhead":  func(sp *Spec) { sp.GPUSyncOverhead = -1e-6 },
	}
	for name, mut := range cases {
		if err := neg(mut); err == nil {
			t.Errorf("%s: Validate accepted an out-of-range value", name)
		}
	}
}
