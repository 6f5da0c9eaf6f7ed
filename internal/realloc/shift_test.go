package realloc

import (
	"math/rand"
	"slices"
	"testing"

	"realhf/internal/core"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

// randomLayout draws a legal (mesh, strategy) of a model on the cluster.
func randomLayout(rng *rand.Rand, meshes []mesh.Mesh, cfg model.Config, gpusPerNode int) core.Assignment {
	for {
		m := meshes[rng.Intn(len(meshes))]
		sts := parallel.Enumerate(m.Count, min(m.Count, gpusPerNode), cfg.NumLayers)
		if len(sts) == 0 {
			continue
		}
		st := sts[rng.Intn(len(sts))].WithMicroBatches(1 << rng.Intn(3))
		st.ZeRO3 = st.TP == 1 && st.PP == 1 && rng.Intn(2) == 0
		if st.Validate(m, cfg, 0) != nil {
			continue
		}
		return core.Assignment{Mesh: m, Strategy: st}
	}
}

// shiftBy moves a layout by k whole nodes.
func shiftBy(a core.Assignment, k int) core.Assignment {
	a.Mesh.First += k * a.Mesh.M
	return a
}

// TestWholeNodeShiftInvariance pins what the estimator's transfer
// signatures rely on (estimator.SigOf): moving both endpoints of a
// reallocation or a data transfer by whole nodes moves its schedule and
// nothing else. On 2, 4, 8 and 16 nodes of 8 and of 4 GPUs, random legal
// layout pairs of every preset model are priced under every whole-node
// shift that keeps both meshes inside the cluster: ParamsCost and DataCost
// must be bit-identical, and ParamsBusy and DataBusy must be the unshifted
// slices, shifted.
func TestWholeNodeShiftInvariance(t *testing.T) {
	var cs CostScratch
	shifts := 0
	for _, gpusPerNode := range []int{8, 4} {
		for _, nodes := range []int{2, 4, 8, 16} {
			hw := hardware.DefaultCluster(nodes)
			hw.GPUsPerNode = gpusPerNode
			meshes := mesh.Enumerate(hw)
			rng := rand.New(rand.NewSource(int64(100*gpusPerNode + nodes)))
			for _, cfg := range model.All() {
				for trial := 0; trial < 24; trial++ {
					src := randomLayout(rng, meshes, cfg, gpusPerNode)
					dst := randomLayout(rng, meshes, cfg, gpusPerNode)
					lo := min(src.Mesh.FirstNode(), dst.Mesh.FirstNode())
					hi := max(src.Mesh.FirstNode()+src.Mesh.NumNodes(), dst.Mesh.FirstNode()+dst.Mesh.NumNodes())
					layers, layerBytes := cfg.NumLayers, cfg.LayerParamBytes()
					dataBytes := int64(1+rng.Intn(1<<12)) << 12
					baseP := slices.Clone(ParamsBusy(&cs, layers, layerBytes, src, dst, hw))
					baseD := slices.Clone(DataBusy(&cs, dataBytes, src, dst, hw))
					costP := ParamsCost(&cs, layers, layerBytes, src, dst, hw)
					costD := DataCost(&cs, dataBytes, src, dst, hw)
					for k := -lo; k <= nodes-hi; k++ {
						if k == 0 {
							continue
						}
						shifts++
						s, d := shiftBy(src, k), shiftBy(dst, k)
						if got := ParamsCost(&cs, layers, layerBytes, s, d, hw); got != costP {
							t.Fatalf("%s %v->%v shifted %d nodes: ParamsCost %v, unshifted %v", cfg.Name, src, dst, k, got, costP)
						}
						if got := DataCost(&cs, dataBytes, s, d, hw); got != costD {
							t.Fatalf("%s %v->%v shifted %d nodes: DataCost %v, unshifted %v", cfg.Name, src, dst, k, got, costD)
						}
						if got, want := ParamsBusy(&cs, layers, layerBytes, s, d, hw), shiftedBusy(baseP, k*gpusPerNode); !slices.Equal(got, want) {
							t.Fatalf("%s %v->%v shifted %d nodes: ParamsBusy %v, want %v", cfg.Name, src, dst, k, got, want)
						}
						if got, want := DataBusy(&cs, dataBytes, s, d, hw), shiftedBusy(baseD, k*gpusPerNode); !slices.Equal(got, want) {
							t.Fatalf("%s %v->%v shifted %d nodes: DataBusy %v, want %v", cfg.Name, src, dst, k, got, want)
						}
					}
				}
			}
		}
	}
	if shifts == 0 {
		t.Fatal("no layout pair admitted a whole-node shift")
	}
	t.Logf("%d shifted pairs priced", shifts)
}

// shiftedBusy moves a per-GPU busy slice by gpus devices, filling with zero.
func shiftedBusy(busy []float64, gpus int) []float64 {
	out := make([]float64, len(busy))
	for g := range out {
		if from := g - gpus; from >= 0 && from < len(busy) {
			out[g] = busy[from]
		}
	}
	return out
}
