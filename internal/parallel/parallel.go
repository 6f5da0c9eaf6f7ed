// Package parallel implements 3D parallelization strategies (data, tensor,
// pipeline) and micro-batching, the S_i component of an execution plan.
package parallel

import (
	"fmt"

	"realhf/internal/mesh"
	"realhf/internal/model"
)

// Strategy is a 3D parallelization degree assignment plus the number of
// micro-batches mbs_i data is split into (paper §4, Search Space).
//
// ZeRO3 marks DeepSpeed-style fully-sharded data parallelism: parameters,
// gradients and optimizer states are sharded across the DP group and every
// layer is all-gathered on the fly. ReaL's own plans never use it; the
// DeepSpeed-Chat and OpenRLHF baselines do (paper §8.1).
type Strategy struct {
	DP, TP, PP   int
	MicroBatches int
	ZeRO3        bool
}

// New builds a strategy with one micro-batch.
func New(dp, tp, pp int) Strategy { return Strategy{DP: dp, TP: tp, PP: pp, MicroBatches: 1} }

// WorldSize is the number of GPUs the strategy occupies: dp·tp·pp.
func (s Strategy) WorldSize() int { return s.DP * s.TP * s.PP }

// WithMicroBatches returns a copy with the micro-batch count replaced.
func (s Strategy) WithMicroBatches(n int) Strategy {
	s.MicroBatches = n
	return s
}

// Validate checks the strategy against a model, mesh, and batch size.
// Rules:
//   - dp·tp·pp must equal the mesh size (plans never idle part of a mesh);
//   - pp must not exceed the layer count;
//   - tp must not exceed the head count (tensor slicing granularity);
//   - the batch must split evenly into dp shards of at least one sequence,
//     and each shard into MicroBatches micro-batches.
func (s Strategy) Validate(m mesh.Mesh, cfg model.Config, batch int) error {
	if s.DP < 1 || s.TP < 1 || s.PP < 1 || s.MicroBatches < 1 {
		return fmt.Errorf("parallel: degrees must be >=1: %v", s)
	}
	if s.ZeRO3 && (s.TP > 1 || s.PP > 1) {
		return fmt.Errorf("parallel: ZeRO-3 composes with pure data parallelism only: %v", s)
	}
	// Divide rather than multiply: absurd degrees must not wrap dp·tp·pp
	// around to the mesh size.
	if n := m.NumGPUs(); n%s.DP != 0 || n/s.DP%s.TP != 0 || n/s.DP/s.TP != s.PP {
		return fmt.Errorf("parallel: dp*tp*pp = %d*%d*%d does not fill mesh of %d GPUs", s.DP, s.TP, s.PP, n)
	}
	if s.PP > cfg.NumLayers {
		return fmt.Errorf("parallel: pp=%d exceeds %d layers", s.PP, cfg.NumLayers)
	}
	if s.TP > cfg.NumKVHeads && s.TP > cfg.NumAttentionHeads {
		return fmt.Errorf("parallel: tp=%d exceeds attention heads", s.TP)
	}
	if batch > 0 {
		// Uneven batch sharding is legal (ZeRO-style systems run dp > batch
		// with idle replicas) but each rank's share must still cover the
		// micro-batch count.
		perDP := (batch + s.DP - 1) / s.DP
		if perDP < s.MicroBatches {
			return fmt.Errorf("parallel: %d sequences per dp rank cannot form %d micro-batches", perDP, s.MicroBatches)
		}
	}
	return nil
}

// TPCrossesNode reports whether the tensor-parallel group would span hosts.
// TP ranks are mapped innermost (consecutive GPUs), so this happens exactly
// when tp exceeds the node size or the mesh itself is a sub-node slice
// smaller than tp (impossible by Validate). The paper prunes such plans.
func (s Strategy) TPCrossesNode(m mesh.Mesh) bool {
	gpusPerNode := m.M
	if m.NumGPUs() < gpusPerNode {
		gpusPerNode = m.NumGPUs()
	}
	return s.TP > gpusPerNode
}

// DPCrossesNode reports whether data-parallel peers span hosts under the
// tp-innermost, dp-middle, pp-outermost rank mapping.
func (s Strategy) DPCrossesNode(m mesh.Mesh) bool {
	gpusPerNode := m.M
	if m.NumGPUs() < gpusPerNode {
		gpusPerNode = m.NumGPUs()
	}
	return s.TP*s.DP > gpusPerNode
}

// PPCrossesNode reports whether adjacent pipeline stages live on different
// hosts.
func (s Strategy) PPCrossesNode(m mesh.Mesh) bool {
	if s.PP == 1 {
		return false
	}
	gpusPerNode := m.M
	if m.NumGPUs() < gpusPerNode {
		gpusPerNode = m.NumGPUs()
	}
	return s.TP*s.DP >= gpusPerNode && m.CrossNode()
}

// LayersPerStage returns ceil(layers/pp), the depth of the deepest stage.
func (s Strategy) LayersPerStage(cfg model.Config) int {
	return (cfg.NumLayers + s.PP - 1) / s.PP
}

func (s Strategy) String() string {
	return fmt.Sprintf("(dp=%d,tp=%d,pp=%d,mbs=%d)", s.DP, s.TP, s.PP, s.MicroBatches)
}

// Enumerate lists every (dp,tp,pp) factorization of n GPUs that satisfies the
// structural caps: tp ≤ maxTP and pp ≤ maxPP. Micro-batch counts are left at
// 1; callers enumerate them separately with MicroBatchOptions.
func Enumerate(n, maxTP, maxPP int) []Strategy {
	var out []Strategy
	for tp := 1; tp <= n && tp <= maxTP; tp *= 2 {
		if n%tp != 0 {
			continue
		}
		rest := n / tp
		for pp := 1; pp <= rest && pp <= maxPP; pp++ {
			if rest%pp != 0 {
				continue
			}
			out = append(out, Strategy{DP: rest / pp, TP: tp, PP: pp, MicroBatches: 1})
		}
	}
	return out
}

// MicroBatchOptions lists the candidate micro-batch counts for a dp shard of
// perDP sequences: powers of two from 1 up to perDP (capped at 64 to bound
// the search space, as real systems do).
func MicroBatchOptions(perDP int) []int {
	var out []int
	for n := 1; n <= perDP && n <= 64; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}
