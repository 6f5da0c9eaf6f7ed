package baselines

import (
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
)

func setup(t *testing.T, nodes int, actor, critic model.Config) (hardware.Cluster, *dfg.Graph, map[dfg.Role]core.ModelSpec, *estimator.Estimator) {
	t.Helper()
	hw := hardware.DefaultCluster(nodes)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	models := core.PPOModels(actor, critic)
	return hw, g, models, estimator.NewOracle(hw, models, true)
}

func TestHeuristicMatchesPaperTable3(t *testing.T) {
	// 70B on 16 nodes: the pre-training heuristic must select the Table 3
	// strategy (dp=4, tp=8, pp=4).
	hw, g, models, _ := setup(t, 16, model.LLaMA70B, model.LLaMA7B)
	p, err := BuildHeuristic(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Assign["ActorTrain"].Strategy
	if st.TP != 8 || st.PP != 4 || st.DP != 4 {
		t.Errorf("70B heuristic strategy = %v, want (dp=4,tp=8,pp=4) as in Table 3", st)
	}
}

func TestHeuristicMatchesPaperTable5(t *testing.T) {
	// 7B on 2 nodes: Table 5's heuristic is (dp=2, tp=8, pp=1).
	hw, g, models, _ := setup(t, 2, model.LLaMA7B, model.LLaMA7B)
	p, err := BuildHeuristic(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Assign["ActorTrain"].Strategy
	if st.TP != 8 || st.PP != 1 || st.DP != 2 {
		t.Errorf("7B heuristic strategy = %v, want (dp=2,tp=8,pp=1) as in Table 5", st)
	}
}

func TestAllBaselinesProduceValidPlans(t *testing.T) {
	hw, g, models, e := setup(t, 4, model.LLaMA13B, model.LLaMA7B)
	for _, sys := range []System{Heuristic, DeepSpeed, OpenRLHF, NeMoAligner} {
		p, err := Build(sys, hw, g, models)
		if err != nil {
			t.Errorf("%s: %v", sys, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s plan invalid: %v", sys, err)
		}
		if _, err := e.Evaluate(p); err != nil {
			t.Errorf("%s plan unevaluable: %v", sys, err)
		}
	}
}

func TestDeepSpeedChatUsesZeRO3AndHybridEngine(t *testing.T) {
	hw, g, models, _ := setup(t, 2, model.LLaMA7B, model.LLaMA7B)
	p, err := BuildDeepSpeedChat(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Assign["ActorTrain"].Strategy; !st.ZeRO3 || st.DP != 16 {
		t.Errorf("DSChat training strategy = %v, want full-cluster ZeRO-3", st)
	}
	if st := p.Assign["ActorGen"].Strategy; st.ZeRO3 || st.TP != 8 {
		t.Errorf("DSChat generation strategy = %v, want HybridEngine TP=8", st)
	}
}

func TestDeepSpeedChatOOMsAtLargeScale(t *testing.T) {
	// Fig. 7's red crosses: DSChat cannot train 70B under our memory model.
	hw, g, models, e := setup(t, 16, model.LLaMA70B, model.LLaMA13B)
	p, err := BuildDeepSpeedChat(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Skip("70B ZeRO-3 unexpectedly fits; memory model changed")
	}
}

func TestOpenRLHFGroupsAreDisjoint(t *testing.T) {
	hw, g, models, _ := setup(t, 4, model.LLaMA13B, model.LLaMA7B)
	p, err := BuildOpenRLHF(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Assign["ActorGen"].Mesh
	train := p.Assign["ActorTrain"].Mesh
	crit := p.Assign["CriticTrain"].Mesh
	if gen.Overlaps(train) || gen.Overlaps(crit) || train.Overlaps(crit) {
		t.Error("OpenRLHF groups must be pairwise disjoint")
	}
	if !p.Assign["ActorTrain"].Strategy.ZeRO3 {
		t.Error("OpenRLHF trains with DeepSpeed ZeRO-3")
	}
	// Actor and critic training may overlap in time (disjoint groups), which
	// is OpenRLHF's one concurrency win.
	if p.Assign["RefInf"].Mesh.Overlaps(crit) {
		t.Error("ref model belongs to the actor group")
	}
}

func TestNeMoAlignerColocatesActorTrainAndGen(t *testing.T) {
	hw, g, models, _ := setup(t, 4, model.LLaMA13B, model.LLaMA7B)
	p, err := BuildNeMoAligner(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Assign["ActorGen"].Mesh
	train := p.Assign["ActorTrain"].Mesh
	if !gen.Equal(train) {
		t.Errorf("NeMo-Aligner colocates generation (%v) and training (%v)", gen, train)
	}
	if gen.Overlaps(p.Assign["CriticTrain"].Mesh) {
		t.Error("critic group must be disjoint from the actor group")
	}
}

func TestVeRLPicksBestPlacement(t *testing.T) {
	hw, g, models, e := setup(t, 2, model.LLaMA7B, model.LLaMA7B)
	p, err := BuildVeRL(e, hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{Heuristic, DeepSpeed, OpenRLHF, NeMoAligner} {
		bp, err := Build(sys, hw, g, models)
		if err != nil {
			continue
		}
		bres, err := e.Evaluate(bp)
		if err != nil {
			continue
		}
		if vres.Cost > bres.Cost*1.0001 {
			t.Errorf("veRL (%.2f) must be at least as good as %s (%.2f)", vres.Cost, sys, bres.Cost)
		}
	}
}

func TestHeuristicBeatsNaiveBaselinesAt70B(t *testing.T) {
	// At 70B scale the symmetric Megatron heuristic should beat OpenRLHF's
	// static three-way split (which idles half the cluster during training).
	hw, g, models, e := setup(t, 16, model.LLaMA70B, model.LLaMA7B)
	_, hres, err := Evaluate(Heuristic, e, hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	_, ores, err := Evaluate(OpenRLHF, e, hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Cost >= ores.Cost {
		t.Errorf("heuristic (%.1fs) should beat OpenRLHF (%.1fs) at 70B", hres.Cost, ores.Cost)
	}
}

func TestEvaluateAllSystems(t *testing.T) {
	hw, g, models, e := setup(t, 2, model.LLaMA7B, model.LLaMA7B)
	for _, sys := range All() {
		_, res, err := Evaluate(sys, e, hw, g, models)
		if err != nil {
			t.Errorf("%s: %v", sys, err)
			continue
		}
		if res.TimeCost <= 0 {
			t.Errorf("%s: non-positive time", sys)
		}
	}
}
