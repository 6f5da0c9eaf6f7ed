// Package hardware models the GPU cluster of the paper's testbed: H100
// devices connected by NVLink inside a node and a 3.2 Tbps RoCE fabric
// between nodes. The paper measures this hardware; we parameterize it.
// Every constant lives here so the whole reproduction can be re-calibrated
// from one place.
package hardware

import (
	"fmt"
	"math"
)

// GPU describes a single accelerator.
type GPU struct {
	Name string
	// MemoryBytes is the device HBM capacity (mem_d in the paper's cost
	// function).
	MemoryBytes int64
	// PeakFLOPs is the dense bf16 peak in FLOP/s.
	PeakFLOPs float64
	// HBMBandwidth is the device memory bandwidth in bytes/s. Decoding is
	// bound by this number.
	HBMBandwidth float64
	// KernelLaunchOverhead is the fixed host-side cost of one kernel
	// invocation in seconds. Auto-regressive decoding launches thousands of
	// tiny kernels, making this term significant (paper Fig. 10).
	KernelLaunchOverhead float64
	// CUDAGraphLaunchFactor scales KernelLaunchOverhead when decode kernels
	// are captured into a CUDA graph (Table 6 "with CUDAGraph" rows).
	CUDAGraphLaunchFactor float64
	// MaxMatmulEfficiency is the fraction of peak a large, well-shaped GEMM
	// achieves.
	MaxMatmulEfficiency float64
	// EfficiencyHalfTokens is the per-GPU token count at which matmul
	// efficiency reaches half of MaxMatmulEfficiency. Small per-GPU shards
	// (over-parallelization) fall down this curve — the core inefficiency
	// the paper attributes to symmetric plans.
	EfficiencyHalfTokens float64
}

// Interconnect describes the communication fabric.
type Interconnect struct {
	// IntraNodeBandwidth is the per-GPU NVLink bandwidth in bytes/s.
	IntraNodeBandwidth float64
	// InterNodeBandwidth is the per-GPU share of the RoCE fabric in bytes/s.
	InterNodeBandwidth float64
	// IntraNodeLatency and InterNodeLatency are per-hop latencies in seconds.
	IntraNodeLatency float64
	InterNodeLatency float64
	// CollectiveSyncOverhead is the per-participant straggler/sync cost of a
	// collective in seconds. It dominates latency-bound decode all-reduces
	// (the large "All-Reduce" bars of Fig. 10).
	CollectiveSyncOverhead float64
	// PCIeBandwidth is the host<->device bandwidth used by offloading.
	PCIeBandwidth float64
	// PCIeLatency is the fixed per-transfer setup cost of a host<->device
	// copy in seconds (DMA ring submission plus the first-descriptor fetch).
	// Offload reloads are few and large, so this term is small next to the
	// bandwidth term, but it keeps tiny-shard reloads from costing zero.
	PCIeLatency float64
}

// Cluster is a homogeneous (N, M) device grid, the paper's cluster device
// mesh.
type Cluster struct {
	Nodes       int
	GPUsPerNode int
	GPU         GPU
	Net         Interconnect
}

// DefaultH100 returns the device model used throughout the reproduction,
// calibrated to public H100-SXM numbers.
func DefaultH100() GPU {
	return GPU{
		Name:                  "H100-80GB",
		MemoryBytes:           80 << 30,
		PeakFLOPs:             989e12,
		HBMBandwidth:          3.35e12,
		KernelLaunchOverhead:  6e-6,
		CUDAGraphLaunchFactor: 0.25,
		MaxMatmulEfficiency:   0.62,
		EfficiencyHalfTokens:  96,
	}
}

// DefaultInterconnect returns NVLink + 3.2 Tbps RoCE (per 8-GPU node) as in
// the paper's testbed.
func DefaultInterconnect() Interconnect {
	return Interconnect{
		IntraNodeBandwidth:     450e9,
		InterNodeBandwidth:     50e9, // 3.2 Tbps / 8 GPUs
		IntraNodeLatency:       3e-6,
		InterNodeLatency:       12e-6,
		CollectiveSyncOverhead: 9e-6,
		PCIeBandwidth:          55e9,
		PCIeLatency:            10e-6,
	}
}

// DefaultCluster returns an (nodes, 8) H100 cluster.
func DefaultCluster(nodes int) Cluster {
	return Cluster{
		Nodes:       nodes,
		GPUsPerNode: 8,
		GPU:         DefaultH100(),
		Net:         DefaultInterconnect(),
	}
}

// NumGPUs is the total device count.
func (c Cluster) NumGPUs() int { return c.Nodes * c.GPUsPerNode }

// Validate reports configuration errors.
func (c Cluster) Validate() error {
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 || c.Nodes > math.MaxInt/c.GPUsPerNode {
		return fmt.Errorf("hardware: cluster shape (%d,%d) invalid", c.Nodes, c.GPUsPerNode)
	}
	if c.GPU.MemoryBytes <= 0 || c.GPU.PeakFLOPs <= 0 || c.GPU.HBMBandwidth <= 0 {
		return fmt.Errorf("hardware: GPU %q has non-positive capability", c.GPU.Name)
	}
	if c.Net.IntraNodeBandwidth <= 0 || c.Net.InterNodeBandwidth <= 0 {
		return fmt.Errorf("hardware: interconnect bandwidth must be positive")
	}
	return nil
}

// Bandwidth returns the per-GPU bandwidth of a communication group: NVLink
// if it stays inside one node, the RoCE share otherwise.
func (c Cluster) Bandwidth(crossNode bool) float64 {
	if crossNode {
		return c.Net.InterNodeBandwidth
	}
	return c.Net.IntraNodeBandwidth
}

// Latency returns the per-hop message latency of a group.
func (c Cluster) Latency(crossNode bool) float64 {
	if crossNode {
		return c.Net.InterNodeLatency
	}
	return c.Net.IntraNodeLatency
}

func (c Cluster) String() string {
	return fmt.Sprintf("cluster(%d×%d %s)", c.Nodes, c.GPUsPerNode, c.GPU.Name)
}
