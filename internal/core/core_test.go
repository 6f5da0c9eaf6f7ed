package core

import (
	"strings"
	"testing"

	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func ppoPlan(t *testing.T, nodes, iters int) *Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(nodes)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: iters})
	p := NewPlan(cluster, g, PPOModels(model.LLaMA7B, model.LLaMA7B))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: cluster.NumGPUs() / 8, TP: 8, PP: 1, MicroBatches: 4}
	for _, name := range []string{"ActorGen", "RewInf", "RefInf", "CriticInf", "ActorTrain", "CriticTrain"} {
		p.Assign[name] = Assignment{Mesh: full, Strategy: st}
	}
	return p
}

func TestPlanValidateSymmetric(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("symmetric plan invalid: %v", err)
	}
}

func TestPlanValidateMissingAssignment(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	delete(p.Assign, "RefInf")
	if err := p.Validate(); err == nil {
		t.Error("missing assignment must fail validation")
	}
}

func TestPlanValidateMeshExceedsCluster(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	big, _ := mesh.New(0, 32, 8) // 4 nodes on a 2-node cluster
	a := p.Assign["RefInf"]
	a.Mesh = big
	a.Strategy = parallel.Strategy{DP: 4, TP: 8, PP: 1, MicroBatches: 1}
	p.Assign["RefInf"] = a
	if err := p.Validate(); err == nil {
		t.Error("mesh beyond cluster must fail validation")
	}
}

func TestPlanValidateStrategyMismatch(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	a := p.Assign["RefInf"]
	a.Strategy = parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1} // 8 ranks on 16 GPUs
	p.Assign["RefInf"] = a
	if err := p.Validate(); err == nil {
		t.Error("strategy not filling mesh must fail validation")
	}
}

func TestHomeOfTrainable(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	small, _ := mesh.New(0, 8, 8)
	p.Assign["ActorTrain"] = Assignment{Mesh: small, Strategy: parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}}
	home, ok := p.HomeOf(dfg.Actor)
	if !ok || !home.Mesh.Equal(small) {
		t.Errorf("actor home = %v, want train mesh", home)
	}
	// Frozen models are homed at their (only) inference call.
	refHome, ok := p.HomeOf(dfg.Ref)
	if !ok || !refHome.Mesh.Equal(mesh.Full(p.Cluster)) {
		t.Errorf("ref home = %v, want its inference mesh", refHome)
	}
}

// buildAug validates p and expands it through a fresh AugBuilder.
func buildAug(p *Plan) (*AugGraph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b, err := NewAugBuilder(p.Graph)
	if err != nil {
		return nil, err
	}
	return b.Build(p)
}

func TestSymmetricPlanHasNoTransferNodes(t *testing.T) {
	p := ppoPlan(t, 2, 2)
	g, err := buildAug(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Kind != KindCall {
			t.Errorf("symmetric plan produced %v node %q", n.Kind, n.Label())
		}
	}
	if len(g.Nodes) != 12 {
		t.Errorf("2 PPO iterations = %d call nodes, want 12", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAsymmetricPlanInsertsRealloc(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	genMesh, _ := mesh.New(0, 8, 8)
	p.Assign["ActorGen"] = Assignment{
		Mesh:     genMesh,
		Strategy: parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1},
	}
	g, err := buildAug(p)
	if err != nil {
		t.Fatal(err)
	}
	var reallocs, xfers int
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindParamRealloc:
			reallocs++
			if n.Role != dfg.Actor {
				t.Errorf("realloc for role %q, want actor", n.Role)
			}
			if n.Bytes != model.LLaMA7B.Params()*2 {
				t.Errorf("realloc payload %d, want full bf16 params", n.Bytes)
			}
			if len(n.Meshes) != 2 {
				t.Error("realloc must occupy source and destination meshes")
			}
		case KindDataTransfer:
			xfers++
		}
	}
	if reallocs != 1 {
		t.Errorf("%d realloc nodes, want 1 (ActorGen differs from actor home)", reallocs)
	}
	// ActorGen's outputs cross to the three inference calls on the full mesh.
	if xfers != 3 {
		t.Errorf("%d data transfer nodes, want 3", xfers)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReallocGatedByVersionParent(t *testing.T) {
	p := ppoPlan(t, 2, 2)
	genMesh, _ := mesh.New(0, 8, 8)
	p.Assign["ActorGen"] = Assignment{
		Mesh:     genMesh,
		Strategy: parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1},
	}
	g, err := buildAug(p)
	if err != nil {
		t.Fatal(err)
	}
	// The iteration-1 realloc must wait for iteration-0 ActorTrain.
	for _, n := range g.Nodes {
		if n.Kind != KindParamRealloc || !strings.Contains(n.Label(), "@1") {
			continue
		}
		found := false
		for _, pid := range n.Parents {
			par := g.Nodes[pid]
			if par.Kind == KindCall && par.Call.Name == "ActorTrain" && par.Call.Iter == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("realloc %q lacks version parent ActorTrain@0", n.Label())
		}
	}
}

func TestOffloadNodes(t *testing.T) {
	// Offload is a per-call plan decision: offloading every Ref call parks
	// the role in host memory.
	p := ppoPlan(t, 2, 1)
	a := p.Assign["RefInf"]
	a.Offload = true
	p.Assign["RefInf"] = a
	if !p.RoleOffloaded(dfg.Ref) {
		t.Fatal("offloading every Ref call must offload the role")
	}
	g, err := buildAug(p)
	if err != nil {
		t.Fatal(err)
	}
	offloads := 0
	for _, n := range g.Nodes {
		if n.Kind == KindOffload {
			offloads++
			if n.Role != dfg.Ref {
				t.Errorf("offload role = %q", n.Role)
			}
			if n.Bytes <= 0 {
				t.Error("offload payload must be positive")
			}
		}
	}
	if offloads != 1 {
		t.Errorf("%d offload nodes, want 1", offloads)
	}
}

func TestCloneIsolation(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	q := p.Clone()
	a := q.Assign["ActorGen"]
	a.Strategy.TP = 1
	a.Strategy.DP = 16
	q.Assign["ActorGen"] = a
	if p.Assign["ActorGen"].Strategy.TP != 8 {
		t.Error("mutating clone leaked into original")
	}
	if p.Fingerprint() == q.Fingerprint() {
		t.Error("different assignments must yield different fingerprints")
	}
}

func TestOverlapSemantics(t *testing.T) {
	m1, _ := mesh.New(0, 8, 8)
	m2, _ := mesh.New(8, 8, 8)
	a := &AugNode{Meshes: []mesh.Mesh{m1}}
	b := &AugNode{Meshes: []mesh.Mesh{m2}}
	c := &AugNode{Meshes: []mesh.Mesh{m1, m2}}
	if a.Overlaps(b) {
		t.Error("disjoint meshes must not overlap")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("transfer node spanning both meshes must overlap each")
	}
}

func TestTableRendering(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	out := p.Table(map[string]float64{"ActorGen": 16.3})
	if !strings.Contains(out, "ActorGen") || !strings.Contains(out, "16.3s") {
		t.Errorf("Table output missing rows:\n%s", out)
	}
	if !strings.Contains(out, "trainer[01-02]") {
		t.Errorf("Table output missing mesh names:\n%s", out)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a := ppoPlan(t, 2, 1)
	b := ppoPlan(t, 2, 1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical plans must share a fingerprint")
	}
	b.Assign["ActorGen"] = Assignment{
		Mesh:     b.Assign["ActorGen"].Mesh,
		Strategy: parallel.Strategy{DP: 4, TP: 4, PP: 1, MicroBatches: 2},
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("differing assignments must change the fingerprint")
	}
}

func TestFingerprintDistinguishesZeRO3(t *testing.T) {
	// The fingerprint used as the cost-cache key must not conflate a ZeRO-3
	// layout with plain DP.
	a := ppoPlan(t, 2, 1)
	b := a.Clone()
	st := a.Assign["ActorTrain"].Strategy
	st.ZeRO3 = true
	st.TP, st.PP = 1, 1
	st.DP = a.Assign["ActorTrain"].Mesh.NumGPUs()
	plain := st
	plain.ZeRO3 = false
	a.Assign["ActorTrain"] = Assignment{Mesh: a.Assign["ActorTrain"].Mesh, Strategy: plain}
	b.Assign["ActorTrain"] = Assignment{Mesh: b.Assign["ActorTrain"].Mesh, Strategy: st}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("ZeRO3 flag must be part of the fingerprint")
	}
}

func TestFingerprintUnassignedCalls(t *testing.T) {
	a := ppoPlan(t, 2, 1)
	b := a.Clone()
	delete(b.Assign, "ActorGen")
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("an unassigned call must not collide with an assigned one")
	}
	if av, bv := a.Assign["RefInf"].Fingerprint(), b.Assign["RefInf"].Fingerprint(); av != bv {
		t.Fatalf("assignment fingerprints diverged: %s vs %s", av, bv)
	}
}
