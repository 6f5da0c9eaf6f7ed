package estimator

import (
	"math"
	"strings"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func symmetricPlan(t *testing.T, nodes int, actor, critic model.Config) *core.Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(nodes)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(actor, critic))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: cluster.NumGPUs() / 8, TP: 8, PP: 1, MicroBatches: 4}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	return p
}

func newEstimator(p *core.Plan) *Estimator {
	return NewOracle(p.Cluster, p.Models, true)
}

func TestEvaluateSymmetricPlan(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeCost <= 0 {
		t.Fatal("TimeCost must be positive")
	}
	if len(res.CallTimes) != 6 {
		t.Errorf("CallTimes has %d entries, want 6", len(res.CallTimes))
	}
	// Everything shares the full mesh: the makespan is the sum of all node
	// durations.
	var sum float64
	for _, sn := range res.Timeline {
		sum += sn.Duration
	}
	if math.Abs(sum-res.TimeCost) > 1e-9*sum {
		t.Errorf("symmetric plan should serialize: sum %.3f vs makespan %.3f", sum, res.TimeCost)
	}
}

func TestConcurrentDisjointMeshes(t *testing.T) {
	// Assign critic-side calls to node 1, actor-side to node 0: independent
	// calls should overlap and beat the symmetric makespan structure.
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, _ := mesh.New(0, 8, 8)
	m1, _ := mesh.New(8, 8, 8)
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	for name, m := range map[string]mesh.Mesh{
		"ActorGen": m0, "RefInf": m0, "ActorTrain": m0,
		"RewInf": m1, "CriticInf": m1, "CriticTrain": m1,
	} {
		p.Assign[name] = core.Assignment{Mesh: m, Strategy: st}
	}
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, sn := range res.Timeline {
		sum += sn.Duration
	}
	if res.TimeCost >= sum {
		t.Errorf("disjoint meshes should overlap: makespan %.3f !< serial %.3f", res.TimeCost, sum)
	}
	// RewInf and RefInf are independent and on disjoint meshes: they must
	// actually overlap in the timeline.
	var rew, ref ScheduledNode
	for _, sn := range res.Timeline {
		if sn.Node.Kind != core.KindCall {
			continue
		}
		switch sn.Node.Call.Name {
		case "RewInf":
			rew = sn
		case "RefInf":
			ref = sn
		}
	}
	if rew.End <= ref.Start || ref.End <= rew.Start {
		t.Error("independent inferences on disjoint meshes did not overlap")
	}
}

func TestTimelineRespectsDependencies(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	endOf := map[int]float64{}
	for _, sn := range res.Timeline {
		endOf[sn.Node.ID] = sn.End
	}
	for _, sn := range res.Timeline {
		for _, pid := range sn.Node.Parents {
			if sn.Start < endOf[pid]-1e-12 {
				t.Fatalf("node %q starts at %.3f before parent ends at %.3f",
					sn.Node.Label(), sn.Start, endOf[pid])
			}
		}
	}
}

func TestMeshExclusionInvariant(t *testing.T) {
	// Property over the timeline: nodes occupying overlapping meshes never
	// run concurrently (Algorithm 1's core constraint).
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 2})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, _ := mesh.New(0, 8, 8)
	m1, _ := mesh.New(8, 8, 8)
	full := mesh.Full(cluster)
	st8 := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	st16 := parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 2}
	p.Assign["ActorGen"] = core.Assignment{Mesh: full, Strategy: st16}
	p.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st8}
	p.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st8}
	p.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st8}
	p.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st8}
	p.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st8}
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Timeline {
		for _, b := range res.Timeline[i+1:] {
			if !a.Node.Overlaps(b.Node) {
				continue
			}
			if a.Start < b.End-1e-12 && b.Start < a.End-1e-12 && a.Duration > 0 && b.Duration > 0 {
				t.Fatalf("nodes %q [%0.3f,%0.3f) and %q [%0.3f,%0.3f) share GPUs but overlap in time",
					a.Node.Label(), a.Start, a.End, b.Node.Label(), b.Start, b.End)
			}
		}
	}
	var makespan float64
	for _, sn := range res.Timeline {
		makespan = max(makespan, sn.End)
	}
	if res.TimeCost != makespan {
		t.Error("TimeCost must equal timeline makespan")
	}
}

func TestOOMPenalty(t *testing.T) {
	// 70B with pure data parallelism cannot fit 80 GB.
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA70B, model.LLaMA7B))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: 16, TP: 1, PP: 1, MicroBatches: 4}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatalf("70B pure-DP must OOM (MaxMem=%d)", res.MaxMem)
	}
	over := float64(res.MaxMem) / float64(p.Cluster.GPU.MemoryBytes)
	want := res.TimeCost * OOMPenalty * over
	if math.Abs(res.Cost-want) > 1e-9*res.Cost {
		t.Errorf("OOM cost %.3f, want TimeCost×α×overflow = %.3f", res.Cost, want)
	}
	if res.Cost < res.TimeCost*OOMPenalty {
		t.Error("OOM cost must be at least TimeCost×α")
	}
}

func TestFeasiblePlanNoPenalty(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatalf("7B symmetric plan should fit (MaxMem=%.1f GB)", float64(res.MaxMem)/(1<<30))
	}
	if res.Cost != res.TimeCost {
		t.Error("feasible plan cost must equal its time")
	}
}

func TestReallocNodesAppearAndCost(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	genMesh, _ := mesh.New(0, 8, 8)
	p.Assign["ActorGen"] = core.Assignment{
		Mesh:     genMesh,
		Strategy: parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1},
	}
	e := newEstimator(p)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	foundRealloc := false
	for _, sn := range res.Timeline {
		if sn.Node.Kind == core.KindParamRealloc {
			foundRealloc = true
			if sn.Duration <= 0 {
				t.Error("cross-layout realloc should take time")
			}
			if sn.Duration > 1 {
				t.Errorf("7B realloc took %.3fs; should be sub-second", sn.Duration)
			}
		}
	}
	if !foundRealloc {
		t.Error("expected a parameter reallocation node in the timeline")
	}
}

func TestThroughputMetric(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	e := newEstimator(p)
	res, _ := e.Evaluate(p)
	tp := Throughput(p, res.TimeCost)
	if tp <= 0 {
		t.Fatal("throughput must be positive")
	}
	// Sanity: cannot exceed the cluster's peak compute.
	peak := p.Cluster.GPU.PeakFLOPs * float64(p.Cluster.NumGPUs()) / 1e15
	if tp >= peak {
		t.Errorf("throughput %.2f PFLOP/s exceeds hardware peak %.2f", tp, peak)
	}
	if Throughput(p, 0) != 0 {
		t.Error("zero time must yield zero throughput")
	}
}

func TestEvaluateUnassignedPlanFails(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	delete(p.Assign, "ActorGen")
	e := newEstimator(p)
	if _, err := e.Evaluate(p); err == nil {
		t.Error("unassigned plan must fail evaluation")
	}
}

// TestEvaluateRejectsInvalidStrategy: Estimator.Evaluate validates the plan
// before its one session pass. Sessions skip per-call strategy legality
// (solver candidates are legal by construction), so Evaluate is the only
// guard against costing a strategy that does not fit its mesh.
func TestEvaluateRejectsInvalidStrategy(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	a := p.Assign["ActorGen"]
	a.Strategy.DP /= 2 // 8 ranks on a 16-GPU mesh
	p.Assign["ActorGen"] = a
	e := newEstimator(p)
	if _, err := e.Evaluate(p); err == nil {
		t.Fatal("a strategy that does not fill its mesh must fail Evaluate")
	}
	if _, err := e.NewSession(nil).Evaluate(p); err != nil {
		t.Fatalf("sessions waive strategy validation by contract, got: %v", err)
	}
}

// TestEvaluateRejectsMeshBeyondCluster: a plan whose meshes extend past the
// *estimator's* cluster must surface an error instead of silently costing
// nothing on the missing GPUs. (Plan.Validate catches meshes beyond the
// plan's own cluster; the hole was a plan built for a larger cluster handed
// to a smaller estimator — the old simulate clamp under-costed it.)
func TestEvaluateRejectsMeshBeyondCluster(t *testing.T) {
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B) // meshes span 16 GPUs
	small := hardware.DefaultCluster(1)                    // estimator models 8
	e := NewOracle(small, p.Models, true)
	if _, err := e.Evaluate(p); err == nil {
		t.Fatal("mesh beyond the estimator's cluster must fail evaluation, not under-cost")
	} else if !strings.Contains(err.Error(), "outside") {
		t.Fatalf("want a mesh-bounds error, got: %v", err)
	}
}

// overlapTestPlan builds a plan with reallocation traffic: the generation
// call runs on a sub-mesh with a different strategy.
func overlapTestPlan(t *testing.T) *core.Plan {
	t.Helper()
	p := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	genMesh, _ := mesh.New(0, 8, 8)
	p.Assign["ActorGen"] = core.Assignment{
		Mesh:     genMesh,
		Strategy: parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1},
	}
	return p
}

// TestOverlapLowersTimeCost: the overlap-aware simulation gives comm nodes
// their own device lane, so a realloc-heavy plan costs strictly less than
// under the serialized schedule, and no plan ever costs more.
func TestOverlapLowersTimeCost(t *testing.T) {
	p := overlapTestPlan(t)
	serial := newEstimator(p)
	over := newEstimator(p)
	over.OverlapComm = true
	sres, err := serial.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := over.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if ores.TimeCost >= sres.TimeCost {
		t.Errorf("overlap estimate %.4fs must be strictly below serialized %.4fs",
			ores.TimeCost, sres.TimeCost)
	}

	sym := symmetricPlan(t, 2, model.LLaMA7B, model.LLaMA7B)
	se := newEstimator(sym)
	oe := newEstimator(sym)
	oe.OverlapComm = true
	s2, err := se.Evaluate(sym)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := oe.Evaluate(sym)
	if err != nil {
		t.Fatal(err)
	}
	// No comm nodes: the two schedules are identical.
	if o2.TimeCost != s2.TimeCost {
		t.Errorf("symmetric plan: overlap %.6f != serialized %.6f", o2.TimeCost, s2.TimeCost)
	}
}

// TestOverlapDefaultOffPreservesSchedule: the zero-value Estimator keeps the
// historical fully-serialized simulation — the schedule byte-matches a
// second serialized estimator, and comm nodes still exclude calls on their
// devices.
func TestOverlapDefaultOffPreservesSchedule(t *testing.T) {
	p := overlapTestPlan(t)
	a, err := newEstimator(p).Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEstimator(p).Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeCost != b.TimeCost || len(a.Timeline) != len(b.Timeline) {
		t.Fatal("serialized evaluation must be reproducible")
	}
	for i := range a.Timeline {
		if a.Timeline[i].Start != b.Timeline[i].Start || a.Timeline[i].End != b.Timeline[i].End {
			t.Fatalf("timeline entry %d drifted", i)
		}
	}
}

// TestOverlapKeepsMeshExclusionWithinStream: even with overlap on, two comm
// nodes sharing a device never run concurrently — only the cross-stream
// pairing (call vs comm) may intersect in time.
func TestOverlapKeepsMeshExclusionWithinStream(t *testing.T) {
	p := overlapTestPlan(t)
	e := newEstimator(p)
	e.OverlapComm = true
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		n          *core.AugNode
		start, end float64
	}
	var comm []span
	for _, sn := range res.Timeline {
		if sn.Node.Kind.CommLike() {
			comm = append(comm, span{sn.Node, sn.Start, sn.End})
		}
	}
	if len(comm) < 2 {
		t.Skip("plan produced fewer than two comm nodes")
	}
	for i := 0; i < len(comm); i++ {
		for j := i + 1; j < len(comm); j++ {
			if !comm[i].n.Overlaps(comm[j].n) {
				continue
			}
			if comm[i].start < comm[j].end-1e-12 && comm[j].start < comm[i].end-1e-12 {
				if comm[i].end-comm[i].start > 0 && comm[j].end-comm[j].start > 0 {
					t.Errorf("comm nodes %q and %q overlap in time on a shared device",
						comm[i].n.Label(), comm[j].n.Label())
				}
			}
		}
	}
}
