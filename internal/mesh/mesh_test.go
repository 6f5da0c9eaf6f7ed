package mesh

import (
	"testing"
	"testing/quick"

	"realhf/internal/hardware"
)

func TestValidateLegalMeshes(t *testing.T) {
	legal := []Mesh{
		{First: 0, Count: 1, M: 8},
		{First: 2, Count: 2, M: 8},
		{First: 4, Count: 4, M: 8},
		{First: 0, Count: 8, M: 8},
		{First: 8, Count: 16, M: 8},
		{First: 0, Count: 64, M: 8},
	}
	for _, m := range legal {
		if err := m.Validate(); err != nil {
			t.Errorf("mesh %+v should be legal: %v", m, err)
		}
	}
}

func TestValidateIllegalMeshes(t *testing.T) {
	illegal := []Mesh{
		{First: 0, Count: 3, M: 8},  // 3 does not divide 8
		{First: 1, Count: 2, M: 8},  // misaligned slice
		{First: 6, Count: 4, M: 8},  // crosses node boundary via misalignment
		{First: 0, Count: 12, M: 8}, // not whole nodes
		{First: 4, Count: 8, M: 8},  // full-node size but not node-aligned
		{First: 0, Count: 0, M: 8},  // empty
		{First: -8, Count: 8, M: 8}, // negative start
	}
	for _, m := range illegal {
		if err := m.Validate(); err == nil {
			t.Errorf("mesh %+v should be illegal", m)
		}
	}
}

func TestOverlapSymmetric(t *testing.T) {
	a := Mesh{First: 0, Count: 8, M: 8}
	b := Mesh{First: 4, Count: 4, M: 8}
	c := Mesh{First: 8, Count: 8, M: 8}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b share GPUs 4-7, should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("a and c are disjoint")
	}
}

func TestNumNodesAndCrossNode(t *testing.T) {
	cases := []struct {
		m     Mesh
		nodes int
		cross bool
	}{
		{Mesh{First: 0, Count: 4, M: 8}, 1, false},
		{Mesh{First: 0, Count: 8, M: 8}, 1, false},
		{Mesh{First: 8, Count: 16, M: 8}, 2, true},
		{Mesh{First: 0, Count: 128, M: 8}, 16, true},
	}
	for _, tc := range cases {
		if got := tc.m.NumNodes(); got != tc.nodes {
			t.Errorf("%+v NumNodes = %d, want %d", tc.m, got, tc.nodes)
		}
		if got := tc.m.CrossNode(); got != tc.cross {
			t.Errorf("%+v CrossNode = %v, want %v", tc.m, got, tc.cross)
		}
	}
}

func TestEnumerateAllLegal(t *testing.T) {
	c := hardware.DefaultCluster(2)
	for _, m := range Enumerate(c) {
		if err := m.Validate(); err != nil {
			t.Errorf("Enumerate produced illegal mesh %+v: %v", m, err)
		}
		if m.First+m.Count > c.NumGPUs() {
			t.Errorf("mesh %+v exceeds cluster", m)
		}
	}
}

func TestEnumerateCountSmallCluster(t *testing.T) {
	// One node of 8: slices of size 1 (8), 2 (4), 4 (2) plus the full node.
	c := hardware.DefaultCluster(1)
	got := len(Enumerate(c))
	if got != 8+4+2+1 {
		t.Errorf("Enumerate(1 node) = %d meshes, want 15", got)
	}
}

func TestEnumerateSized(t *testing.T) {
	c := hardware.DefaultCluster(4)
	bySize := map[int]int{}
	for _, m := range Enumerate(c) {
		bySize[m.Count]++
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		if bySize[n] == 0 {
			t.Errorf("no %d-GPU mesh enumerated", n)
		}
	}
	if bySize[3] != 0 {
		t.Error("size-3 meshes must not exist on 8-GPU nodes")
	}
	if got := bySize[8]; got != 4 {
		t.Errorf("4-node cluster has %d full-node meshes, want 4", got)
	}
}

func TestFullCoversCluster(t *testing.T) {
	c := hardware.DefaultCluster(16)
	f := Full(c)
	if f.Count != 128 || f.First != 0 {
		t.Errorf("Full = %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("full mesh invalid: %v", err)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		m    Mesh
		want string
	}{
		{Mesh{First: 0, Count: 128, M: 8}, "trainer[01-16]"},
		{Mesh{First: 0, Count: 8, M: 8}, "trainer01"},
		{Mesh{First: 8, Count: 8, M: 8}, "trainer02"},
		{Mesh{First: 2, Count: 2, M: 8}, "trainer01:g2-3"},
	}
	for _, tc := range cases {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}

// Property: overlap is symmetric and consistent with GPU set intersection.
func TestOverlapMatchesSetIntersection(t *testing.T) {
	c := hardware.DefaultCluster(2)
	meshes := Enumerate(c)
	f := func(i, j uint16) bool {
		a := meshes[int(i)%len(meshes)]
		b := meshes[int(j)%len(meshes)]
		set := map[int]bool{}
		for _, g := range a.GPUs() {
			set[g] = true
		}
		shared := false
		for _, g := range b.GPUs() {
			if set[g] {
				shared = true
				break
			}
		}
		return a.Overlaps(b) == shared && a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: disjoint equal-size siblings tile the cluster exactly.
func TestSiblingsTileCluster(t *testing.T) {
	c := hardware.DefaultCluster(2)
	covered := map[int]map[int]int{} // mesh size -> GPU -> covering meshes
	for _, m := range Enumerate(c) {
		// Count only the canonical tiling (aligned, non-overlapping
		// partition): every enumerated mesh is aligned, so the partition at
		// stride n is exactly the size-n meshes with First%n == 0.
		if m.First%m.Count != 0 {
			continue
		}
		if covered[m.Count] == nil {
			covered[m.Count] = map[int]int{}
		}
		for _, g := range m.GPUs() {
			covered[m.Count][g]++
		}
	}
	for n, cov := range covered {
		for g := 0; g < c.NumGPUs(); g++ {
			if cov[g] != 1 {
				t.Fatalf("size-%d tiling covers GPU %d %d times", n, g, cov[g])
			}
		}
	}
}

func TestNewRejectsIllegal(t *testing.T) {
	if _, err := New(1, 2, 8); err == nil {
		t.Error("New(1,2,8) should fail: misaligned")
	}
	if m, err := New(0, 16, 8); err != nil || m.NumNodes() != 2 {
		t.Errorf("New(0,16,8) = %+v, %v", m, err)
	}
}
