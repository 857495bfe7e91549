package hw

import (
	"strings"
	"testing"
)

func TestGPURegistryServesBuiltins(t *testing.T) {
	names := Names()
	for i, want := range []string{"A100", "H100", "MI210", "MI250"} {
		if i >= len(names) || names[i] != want {
			t.Fatalf("Names() = %v, want the Table I parts leading in paper order", names)
		}
	}
	if ByName("h100") == nil || ByName("h100").Name != "H100" {
		t.Error("GPU lookup must be case-insensitive")
	}
	if ByName("V100") != nil {
		t.Error("unknown GPU should return nil")
	}
	if _, err := GPUByName("V100"); err == nil || !strings.Contains(err.Error(), "H100") {
		t.Error("GPUByName error must list the registered names")
	}
	if len(All()) < 4 {
		t.Error("All() must include every registered GPU")
	}
}

// Registry lookups hand out fresh copies: mutating one must not corrupt
// later lookups (ablations tweak specs in place).
func TestRegistryReturnsFreshCopies(t *testing.T) {
	a := ByName("H100")
	a.TDPW = 1
	a.VectorTFLOPS[0] = -1
	if b := ByName("H100"); b.TDPW == 1 || b.VectorTFLOPS[0] == -1 {
		t.Error("registry entries must not alias previous lookups")
	}
	sys, err := SystemByName("H100x8")
	if err != nil {
		t.Fatal(err)
	}
	sys.GPU.TDPW = 1
	sys2, err := SystemByName("H100x8")
	if err != nil {
		t.Fatal(err)
	}
	if sys2.GPU.TDPW == 1 {
		t.Error("system lookups must not alias previous lookups")
	}
}

// Clone is a deep copy: the clone's TFLOPS maps are its own, and a nil
// map stays nil.
func TestGPUSpecClone(t *testing.T) {
	a := ByName("H100")
	b := a.Clone()
	b.TDPW = 1
	b.VectorTFLOPS[0] = -1
	if a.TDPW == 1 || a.VectorTFLOPS[0] == -1 {
		t.Error("Clone must not alias the original")
	}
	a.MatrixTFLOPS = nil
	if c := a.Clone(); c.MatrixTFLOPS != nil {
		t.Errorf("Clone of a nil map = %v, want nil", c.MatrixTFLOPS)
	}
}

func TestSystemRegistryServesPaperSystems(t *testing.T) {
	want := map[string]int{"A100x4": 4, "H100x4": 4, "H100x8": 8, "MI210x4": 4, "MI250x4": 4}
	for name, n := range want {
		sys, err := SystemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.N != n || sys.NodeCount() != 1 {
			t.Errorf("%s: shape %dx%d", name, sys.N, sys.NodeCount())
		}
	}
	if _, err := SystemByName("nonesuch"); err == nil {
		t.Error("unknown system must error")
	}
	names := SystemNames()
	if len(names) < len(want) {
		t.Errorf("SystemNames() = %v", names)
	}
	if len(Systems()) != len(names) {
		t.Error("Systems() and SystemNames() must agree")
	}
}

func TestDuplicateRegistrationFails(t *testing.T) {
	if err := defaultReg.register(A100); err == nil {
		t.Error("re-registering A100 must fail")
	}
	if err := defaultReg.registerSystem(SystemH100x8); err == nil {
		t.Error("re-registering H100x8 must fail")
	}
}

func TestParseVendor(t *testing.T) {
	for s, want := range map[string]Vendor{"NVIDIA": NVIDIA, "nvidia": NVIDIA, " amd ": AMD} {
		got, err := ParseVendor(s)
		if err != nil || got != want {
			t.Errorf("ParseVendor(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseVendor("intel"); err == nil {
		t.Error("unknown vendor must error")
	}
}

func TestMultiNodeSystem(t *testing.T) {
	s := NewMultiNode(H100(), 8, 4)
	if s.Name != "H100x8x4" || s.N != 8 || s.NodeCount() != 4 || s.TotalGPUs() != 32 {
		t.Errorf("system = %+v", s)
	}
	if s.NICSpec() != DefaultNIC() {
		t.Error("multi-node systems default to the standard NIC tier")
	}
	one := NewMultiNode(H100(), 8, 1)
	if one.Name != "H100x8" || one.Nodes != 0 || one.TotalGPUs() != 8 {
		t.Errorf("one-node system = %+v", one)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSystemCanonical(t *testing.T) {
	s := NewSystem(H100(), 4)
	s.Nodes = 1
	nic := DefaultNIC()
	s.NIC = &nic
	s.Fabric = FabricSwitched
	c := s.Canonical()
	if c.Nodes != 0 || c.NIC != nil || c.Fabric != "" {
		t.Errorf("canonical = %+v, inert fields must clear", c)
	}
	multi := NewMultiNode(MI250(), 4, 2)
	dn := DefaultNIC()
	multi.NIC = &dn
	if got := multi.Canonical(); got.NIC != nil {
		t.Error("the explicit default NIC must canonicalize to implicit")
	}
	custom := NewMultiNode(MI250(), 4, 2)
	custom.NIC = &NICSpec{BWGBs: 25, Latency: 2e-6}
	if got := custom.Canonical(); got.NIC == nil || got.NIC.BWGBs != 25 {
		t.Error("a non-default NIC must survive canonicalization")
	}
	mesh := NewSystem(H100(), 4)
	mesh.Fabric = FabricMesh
	if got := mesh.Canonical(); got.Fabric != FabricMesh {
		t.Error("a non-default fabric must survive canonicalization")
	}
}

func TestSystemValidate(t *testing.T) {
	bad := []System{
		{Name: "", GPU: H100(), N: 4},
		{Name: "x", GPU: nil, N: 4},
		{Name: "x", GPU: H100(), N: 0},
		{Name: "x", GPU: H100(), N: 4, Fabric: "torus"},
		{Name: "x", GPU: H100(), N: 4, Nodes: 2, NIC: &NICSpec{BWGBs: -1}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: expected validation error for %+v", i, s)
		}
	}
}

func TestGPUSpecValidate(t *testing.T) {
	if err := H100().Validate(); err != nil {
		t.Error(err)
	}
	g := H100()
	g.MemHeadroom = 1.5
	if g.Validate() == nil {
		t.Error("headroom above 1 must fail")
	}
	g2 := A100()
	g2.VectorTFLOPS = nil
	if g2.Validate() == nil {
		t.Error("missing FP32 vector throughput must fail")
	}
}
