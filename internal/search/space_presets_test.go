package search_test

import (
	"fmt"
	"testing"

	"realhf"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/search"
)

// TestShapeSpaceMatchesPerMeshSpace holds the shape-level candidate space to
// the reference per-mesh enumeration (search.CheckShapeSpace) on every
// algorithm preset, at 1, 2, 4 and 16 nodes of 8 and of 4 GPUs, at every
// pruning level, with and without the offload axis. Larger clusters carry
// larger actors, so the memory filter drops options too; 16 nodes also
// carry the 70B actor of the paper-scale search.
func TestShapeSpaceMatchesPerMeshSpace(t *testing.T) {
	actors := map[int][]string{1: {"llama7b"}, 2: {"llama7b"}, 4: {"llama13b"}, 16: {"llama34b", "llama70b"}}
	compared, failed := 0, 0
	for _, algo := range []string{"ppo", "grpo", "dpo", "remax"} {
		for _, nodes := range []int{1, 2, 4, 16} {
			for _, actor := range actors[nodes] {
				for _, gpusPerNode := range []int{8, 4} {
					cfg, err := realhf.PaperExperiment(algo, actor, "llama7b-critic", nodes, 0)
					if err != nil {
						t.Fatal(err)
					}
					cfg.GPUsPerNode = gpusPerNode
					exp, err := realhf.NewPlanner(realhf.ClusterConfig{}).Heuristic(cfg)
					if err != nil {
						t.Fatalf("%s %s at %d×%d: %v", algo, actor, nodes, gpusPerNode, err)
					}
					p := core.NewPlan(exp.Plan.Cluster, exp.Plan.Graph, exp.Plan.Models)
					e := estimator.NewOracle(p.Cluster, p.Models, true)
					for _, lvl := range []search.PruneLevel{search.PruneNone, search.PruneModerate, search.PruneAggressive} {
						for _, offload := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%d×%d/prune=%d/offload=%v", algo, actor, nodes, gpusPerNode, lvl, offload)
							n, err := search.CheckShapeSpace(e, p, lvl, offload)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							compared += n
							if n == 0 {
								failed++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates compared; %d problems had a call with no legal assignment in either space", compared, failed)
}
