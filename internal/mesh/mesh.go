// Package mesh implements the paper's device meshes: contiguous rectangles
// of GPUs on which a model function call executes. Following §4, a legal
// mesh either (a) covers one or more entire hosts, or (b) covers a
// consecutive, aligned slice of a single host whose size divides the number
// of devices per host. This guarantees that disjoint meshes can tile the
// cluster exactly, eliminating plans with permanently idle GPUs.
package mesh

import (
	"fmt"

	"realhf/internal/hardware"
)

// Mesh is a contiguous range of global GPU indices [First, First+Count)
// inside a cluster with M GPUs per node. The zero Mesh is empty.
type Mesh struct {
	First int // global index of the first GPU
	Count int // number of GPUs
	// M is fixed by the cluster geometry, which the cache's problem key
	// already covers; two assignments on the same cluster cannot differ
	// only in M.
	//lint:realvet fieldcover -- cluster geometry; covered by the problem key, not the assignment fingerprint
	M int // GPUs per node of the owning cluster
}

// New builds a mesh and validates it against the §4 placement rule.
func New(first, count, gpusPerNode int) (Mesh, error) {
	m := Mesh{First: first, Count: count, M: gpusPerNode}
	if err := m.Validate(); err != nil {
		return Mesh{}, err
	}
	return m, nil
}

// Validate checks the §4 legality rule.
func (m Mesh) Validate() error {
	if m.M <= 0 {
		return fmt.Errorf("mesh: gpusPerNode %d invalid", m.M)
	}
	if m.Count <= 0 || m.First < 0 {
		return fmt.Errorf("mesh: range [%d,+%d) invalid", m.First, m.Count)
	}
	if m.Count >= m.M {
		// Whole-host mesh: k full nodes, aligned to a node boundary.
		if m.Count%m.M != 0 {
			return fmt.Errorf("mesh: multi-node mesh of %d GPUs is not a whole number of %d-GPU nodes", m.Count, m.M)
		}
		if m.First%m.M != 0 {
			return fmt.Errorf("mesh: multi-node mesh must start on a node boundary (first=%d, M=%d)", m.First, m.M)
		}
		return nil
	}
	// Sub-node mesh: size divides M and the slice is aligned to its size,
	// so that equal slices tile the host.
	if m.M%m.Count != 0 {
		return fmt.Errorf("mesh: sub-node mesh of %d GPUs does not divide node size %d", m.Count, m.M)
	}
	if m.First%m.Count != 0 {
		return fmt.Errorf("mesh: sub-node mesh must be aligned to its size (first=%d, count=%d)", m.First, m.Count)
	}
	if m.First/m.M != (m.First+m.Count-1)/m.M {
		return fmt.Errorf("mesh: sub-node mesh crosses a node boundary")
	}
	return nil
}

// NumGPUs returns the device count of the mesh.
func (m Mesh) NumGPUs() int { return m.Count }

// NumNodes returns how many distinct hosts the mesh touches.
func (m Mesh) NumNodes() int {
	if m.Count == 0 {
		return 0
	}
	firstNode := m.First / m.M
	lastNode := (m.First + m.Count - 1) / m.M
	return lastNode - firstNode + 1
}

// FirstNode returns the host index of the first GPU.
func (m Mesh) FirstNode() int { return m.First / m.M }

// CrossNode reports whether the mesh spans more than one host.
func (m Mesh) CrossNode() bool { return m.NumNodes() > 1 }

// Contains reports whether a global GPU index belongs to the mesh.
func (m Mesh) Contains(gpu int) bool {
	return gpu >= m.First && gpu < m.First+m.Count
}

// Overlaps reports whether two meshes share any GPU. Meshes are contiguous
// index ranges, so this is interval intersection.
func (m Mesh) Overlaps(o Mesh) bool {
	return m.First < o.First+o.Count && o.First < m.First+m.Count
}

// GPUs returns the global GPU indices of the mesh in order.
func (m Mesh) GPUs() []int {
	g := make([]int, m.Count)
	for i := range g {
		g[i] = m.First + i
	}
	return g
}

// Equal reports whether two meshes denote the same device range.
func (m Mesh) Equal(o Mesh) bool { return m.First == o.First && m.Count == o.Count && m.M == o.M }

// String renders the mesh in the paper's host-list style, e.g.
// "trainer[01-04]" for whole-node meshes or "trainer01:g2-3" for slices.
func (m Mesh) String() string {
	if m.Count >= m.M {
		first := m.FirstNode() + 1
		last := first + m.NumNodes() - 1
		if first == last {
			return fmt.Sprintf("trainer%02d", first)
		}
		return fmt.Sprintf("trainer[%02d-%02d]", first, last)
	}
	node := m.FirstNode() + 1
	g0 := m.First % m.M
	return fmt.Sprintf("trainer%02d:g%d-%d", node, g0, g0+m.Count-1)
}

// Enumerate returns every legal mesh of the cluster: all aligned power-of-two
// sub-node slices and all spans of consecutive whole nodes.
func Enumerate(c hardware.Cluster) []Mesh {
	var out []Mesh
	M := c.GPUsPerNode
	// Sub-node slices: sizes that divide M, aligned.
	for size := 1; size < M; size++ {
		if M%size != 0 {
			continue
		}
		for node := 0; node < c.Nodes; node++ {
			for off := 0; off+size <= M; off += size {
				out = append(out, Mesh{First: node*M + off, Count: size, M: M})
			}
		}
	}
	// Whole-node spans of any consecutive length.
	for span := 1; span <= c.Nodes; span++ {
		for node := 0; node+span <= c.Nodes; node++ {
			out = append(out, Mesh{First: node * M, Count: span * M, M: M})
		}
	}
	return out
}

// Full returns the mesh covering the entire cluster.
func Full(c hardware.Cluster) Mesh {
	return Mesh{First: 0, Count: c.NumGPUs(), M: c.GPUsPerNode}
}
