// Package baselines encodes the placement and parallelization policies of
// the systems ReaL is compared against (paper §8.1 and Appendix D) as
// execution plans in our plan language:
//
//   - ReaL-Heuristic: pre-training-style symmetric 3D parallelism — intra-
//     node TP, inter-node PP, DP maximized within memory.
//   - DeepSpeed-Chat: symmetric ZeRO-3 data parallelism everywhere, with a
//     HybridEngine that reshards to TP for the generation task.
//   - OpenRLHF: three disjoint GPU groups (actor/ref, critic/reward, vLLM
//     generation); groups idle while they wait on each other.
//   - NeMo-Aligner: two disjoint groups; actor training and generation are
//     colocated on the larger group, critic and reward on the smaller.
//   - veRL (HybridFlow): supports colocated and split placements subsuming
//     the above; modeled as the best of the other baselines per setting.
package baselines

import (
	"fmt"
	"math"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/memory"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// System names the baseline builders.
type System string

// The compared systems of Fig. 7.
const (
	Heuristic   System = "real-heuristic"
	DeepSpeed   System = "dschat"
	OpenRLHF    System = "openrlhf"
	NeMoAligner System = "nemo-aligner"
	VeRL        System = "verl"
)

// All lists the baseline systems in the order Fig. 7 plots them.
func All() []System {
	return []System{DeepSpeed, OpenRLHF, NeMoAligner, VeRL, Heuristic}
}

// maxDPStrategy returns the symmetric 3D strategy for n GPUs that keeps TP
// within a node and maximizes DP subject to the trainable models fitting in
// device memory — the paper's REAL-Heuristic rule.
func maxDPStrategy(hw hardware.Cluster, n int, models []core.ModelSpec, batch int) (parallel.Strategy, error) {
	tp := hw.GPUsPerNode
	if tp > n {
		tp = n
	}
	maxLayers := math.MaxInt32
	for _, ms := range models {
		if ms.Cfg.NumLayers < maxLayers {
			maxLayers = ms.Cfg.NumLayers
		}
	}
	rest := n / tp
	for pp := 1; pp <= rest && pp <= maxLayers; pp++ {
		if rest%pp != 0 {
			continue
		}
		dp := rest / pp
		st := parallel.Strategy{DP: dp, TP: tp, PP: pp, MicroBatches: 1}
		fits := true
		for _, ms := range models {
			if !ms.Trainable {
				continue
			}
			// The heuristic sizes memory the way Megatron pre-training
			// defaults do — optimizer states replicated across DP, with
			// headroom reserved for activations. For a 70B model on 128
			// GPUs this selects (dp=4, tp=8, pp=4), matching paper Table 3;
			// for 7B on 16 GPUs it selects (dp=2, tp=8, pp=1) as in
			// Table 5.
			static := memory.Static(ms.Params(), st, memory.StaticOpts{Trainable: true})
			if static > hw.GPU.MemoryBytes*3/4 {
				fits = false
				break
			}
		}
		if fits {
			mbs := 4
			if pp >= 4 {
				mbs = 8
			}
			if perDP := batch / dp; mbs > perDP {
				mbs = perDP
			}
			if mbs < 1 {
				mbs = 1
			}
			return st.WithMicroBatches(mbs), nil
		}
	}
	return parallel.Strategy{}, fmt.Errorf("baselines: no symmetric strategy fits %d GPUs", n)
}

// BuildHeuristic produces the REAL-Heuristic plan: one symmetric 3D strategy
// across the full cluster for every call.
func BuildHeuristic(hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	p := core.NewPlan(hw, g, models)
	full := mesh.Full(hw)
	var trainable []core.ModelSpec
	for _, ms := range models {
		if ms.Trainable {
			trainable = append(trainable, ms)
		}
	}
	batch := minTrainBatch(g)
	st, err := maxDPStrategy(hw, hw.NumGPUs(), trainable, batch)
	if err != nil {
		return nil, err
	}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	p = fitMemory(p)
	return p, p.Validate()
}

// minTrainBatch returns the smallest per-update batch among the graph's
// calls (train calls divide the global batch into PPO mini-batches), so a
// shared symmetric strategy divides every call's data evenly.
func minTrainBatch(g *dfg.Graph) int {
	min := math.MaxInt32
	for _, n := range g.Nodes {
		if b := n.UpdateBatch(); b < min {
			min = b
		}
	}
	if min == math.MaxInt32 {
		return 1
	}
	return min
}

// BuildDeepSpeedChat produces the DeepSpeed-Chat plan: ZeRO-3 DP across the
// whole cluster for training and inference; the HybridEngine reshards the
// actor to intra-node TP for generation.
func BuildDeepSpeedChat(hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	p := core.NewPlan(hw, g, models)
	full := mesh.Full(hw)
	n := hw.NumGPUs()
	zero3 := parallel.Strategy{DP: n, TP: 1, PP: 1, MicroBatches: 1, ZeRO3: true}
	tp := hw.GPUsPerNode
	if tp > n {
		tp = n
	}
	hybrid := parallel.Strategy{DP: n / tp, TP: tp, PP: 1, MicroBatches: 1}
	for _, node := range g.Calls() {
		st := zero3
		if node.Type == dfg.Generate {
			st = hybrid
		}
		st = fitMicroBatches(st, node.UpdateBatch())
		p.Assign[node.Name] = core.Assignment{Mesh: full, Strategy: st}
	}
	p = fitMemory(p)
	return p, p.Validate()
}

// fitMicroBatches clamps the micro-batch count to the per-rank batch share.
func fitMicroBatches(st parallel.Strategy, batch int) parallel.Strategy {
	perDP := (batch + st.DP - 1) / st.DP
	if perDP > 0 && st.MicroBatches > perDP {
		st.MicroBatches = perDP
	}
	if st.MicroBatches < 1 {
		st.MicroBatches = 1
	}
	return st
}

// fitMemory post-processes a baseline plan the way real systems handle
// activation pressure: it doubles a call's micro-batch count until the
// call's active memory fits next to the static allocations on its devices
// (gradient accumulation / sequential micro-batching). Calls that still do
// not fit are left as-is and will OOM at runtime, which is the paper's
// red-cross outcome.
func fitMemory(p *core.Plan) *core.Plan {
	static := estimator.StaticPerGPU(p)
	cap := p.Cluster.GPU.MemoryBytes
	for _, node := range p.Graph.Calls() {
		a := p.Assign[node.Name]
		var maxStatic int64
		for gpu := a.Mesh.First; gpu < a.Mesh.First+a.Mesh.Count; gpu++ {
			if static[gpu] > maxStatic {
				maxStatic = static[gpu]
			}
		}
		perDP := (node.UpdateBatch() + a.Strategy.DP - 1) / a.Strategy.DP
		for estimator.CallActiveBytes(p, node)+maxStatic > cap &&
			a.Strategy.MicroBatches*2 <= perDP && a.Strategy.MicroBatches < 256 {
			a.Strategy.MicroBatches *= 2
			p.Assign[node.Name] = a
		}
	}
	return p
}

// groupMeshes splits the cluster into consecutive whole-node groups with the
// given GPU counts (which must sum to the cluster size).
func groupMeshes(hw hardware.Cluster, counts ...int) ([]mesh.Mesh, error) {
	var out []mesh.Mesh
	first := 0
	for _, c := range counts {
		m, err := mesh.New(first, c, hw.GPUsPerNode)
		if err != nil {
			return nil, fmt.Errorf("baselines: group split %v: %w", counts, err)
		}
		out = append(out, m)
		first += c
	}
	if first != hw.NumGPUs() {
		return nil, fmt.Errorf("baselines: groups %v do not cover %d GPUs", counts, hw.NumGPUs())
	}
	return out, nil
}

// BuildOpenRLHF produces the OpenRLHF plan: the cluster splits into a vLLM
// generation group (half), an actor/ref group (quarter) and a critic/reward
// group (quarter). Training uses ZeRO-3 (DeepSpeed backend); generation uses
// intra-node TP (vLLM). The groups never share devices, so each idles while
// the others work — the Fig. 1 (middle) pattern.
func BuildOpenRLHF(hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	n := hw.NumGPUs()
	if n < 4 {
		return nil, fmt.Errorf("baselines: OpenRLHF needs at least 4 GPUs, have %d", n)
	}
	genN, actorN := n/2, n/4
	criticN := n - genN - actorN
	meshes, err := groupMeshes(hw, genN, actorN, criticN)
	if err != nil {
		return nil, err
	}
	genMesh, actorMesh, criticMesh := meshes[0], meshes[1], meshes[2]

	p := core.NewPlan(hw, g, models)
	for _, node := range g.Calls() {
		var m mesh.Mesh
		var st parallel.Strategy
		switch {
		case node.Type == dfg.Generate:
			m = genMesh
			tp := hw.GPUsPerNode
			if tp > m.NumGPUs() {
				tp = m.NumGPUs()
			}
			st = parallel.Strategy{DP: m.NumGPUs() / tp, TP: tp, PP: 1, MicroBatches: 1}
		case node.Role == dfg.Actor || node.Role == dfg.Ref:
			m = actorMesh
			st = parallel.Strategy{DP: m.NumGPUs(), TP: 1, PP: 1, MicroBatches: 1, ZeRO3: true}
		default:
			m = criticMesh
			st = parallel.Strategy{DP: m.NumGPUs(), TP: 1, PP: 1, MicroBatches: 1, ZeRO3: true}
		}
		st = fitMicroBatches(st, node.UpdateBatch())
		p.Assign[node.Name] = core.Assignment{Mesh: m, Strategy: st}
	}
	p = fitMemory(p)
	return p, p.Validate()
}

// BuildNeMoAligner produces the NeMo-Aligner plan: two disjoint groups; the
// larger colocates actor training and generation (Megatron 3D + TRT-LLM
// resharding), the smaller holds critic and reward.
func BuildNeMoAligner(hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	n := hw.NumGPUs()
	if n < 2 {
		return nil, fmt.Errorf("baselines: NeMo-Aligner needs at least 2 GPUs")
	}
	actorN := n * 3 / 4
	if actorN == 0 || actorN%hw.GPUsPerNode != 0 && n > hw.GPUsPerNode {
		actorN = n / 2
	}
	if actorN < 1 {
		actorN = 1
	}
	meshes, err := groupMeshes(hw, actorN, n-actorN)
	if err != nil {
		// Fall back to a half/half split on node boundaries.
		meshes, err = groupMeshes(hw, n/2, n-n/2)
		if err != nil {
			return nil, err
		}
	}
	actorMesh, criticMesh := meshes[0], meshes[1]

	p := core.NewPlan(hw, g, models)
	for _, node := range g.Calls() {
		m := criticMesh
		if node.Role == dfg.Actor || node.Role == dfg.Ref {
			m = actorMesh
		}
		batch := node.UpdateBatch()
		ms := models[node.Role]
		st, err := maxDPStrategy(hw, m.NumGPUs(), []core.ModelSpec{ms}, batch)
		if err != nil {
			return nil, err
		}
		if node.Type == dfg.Generate {
			// TRT-LLM reshards to pure TP within the node for generation.
			tp := hw.GPUsPerNode
			if tp > m.NumGPUs() {
				tp = m.NumGPUs()
			}
			st = parallel.Strategy{DP: m.NumGPUs() / tp, TP: tp, PP: 1, MicroBatches: 1}
			st = fitMicroBatches(st, batch)
		}
		p.Assign[node.Name] = core.Assignment{Mesh: m, Strategy: st}
	}
	p = fitMemory(p)
	return p, p.Validate()
}

// Build constructs the named baseline plan.
func Build(sys System, hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	switch sys {
	case Heuristic:
		return BuildHeuristic(hw, g, models)
	case DeepSpeed:
		return BuildDeepSpeedChat(hw, g, models)
	case OpenRLHF:
		return BuildOpenRLHF(hw, g, models)
	case NeMoAligner:
		return BuildNeMoAligner(hw, g, models)
	case VeRL:
		return nil, fmt.Errorf("baselines: veRL requires an estimator; use BuildVeRL")
	}
	return nil, fmt.Errorf("baselines: unknown system %q", sys)
}

// BuildVeRL models veRL's flexible placement: it evaluates the colocated and
// split placements the other baselines embody and returns the best one.
func BuildVeRL(e *estimator.Estimator, hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, error) {
	var best *core.Plan
	bestCost := math.Inf(1)
	for _, sys := range []System{Heuristic, DeepSpeed, OpenRLHF, NeMoAligner} {
		p, err := Build(sys, hw, g, models)
		if err != nil {
			continue
		}
		res, err := e.Evaluate(p)
		if err != nil {
			continue
		}
		if res.Cost < bestCost {
			best, bestCost = p, res.Cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: no veRL placement is feasible")
	}
	return best, nil
}

// Evaluate builds and estimates a baseline in one step, returning the plan
// and its estimate. OOM plans are returned with their penalized cost — the
// caller decides whether to plot them as failures (the paper's red crosses).
func Evaluate(sys System, e *estimator.Estimator, hw hardware.Cluster, g *dfg.Graph, models map[dfg.Role]core.ModelSpec) (*core.Plan, *estimator.Result, error) {
	var p *core.Plan
	var err error
	if sys == VeRL {
		p, err = BuildVeRL(e, hw, g, models)
	} else {
		p, err = Build(sys, hw, g, models)
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Evaluate(p)
	if err != nil {
		return nil, nil, err
	}
	return p, res, nil
}
