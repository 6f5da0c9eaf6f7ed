package trace

import (
	"math"
	"strings"
	"testing"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func TestDecodeLayerTraceShape(t *testing.T) {
	hw := hardware.DefaultCluster(16)
	// The Fig. 10 comparison: TP=2/PP=16 vs TP=8/PP=4 for a 70B decode
	// layer at batch 2.
	lowTP := DecodeLayerTrace(hw, model.LLaMA70B, parallel.New(4, 2, 16), 2, 2048, true)
	highTP := DecodeLayerTrace(hw, model.LLaMA70B, parallel.New(4, 8, 4), 2, 2048, true)
	if len(lowTP) != 3 || len(highTP) != 3 {
		t.Fatalf("expected 3 segments, got %d and %d", len(lowTP), len(highTP))
	}
	// TP=8 computes each layer faster...
	if highTP[0].Duration >= lowTP[0].Duration {
		t.Error("TP=8 should slice layer compute thinner than TP=2")
	}
	// ...but pays more for its all-reduce.
	if highTP[1].Duration <= lowTP[1].Duration {
		t.Error("TP=8 all-reduce must cost more than TP=2's")
	}
	// And the speedup is far from linear (the paper's observation).
	if ratio := lowTP[0].Duration / highTP[0].Duration; ratio > 3.5 {
		t.Errorf("TP=8 decode speedup %.1f× vs TP=2; should be ≪4×", ratio)
	}
}

func TestTrainLayerTraceShape(t *testing.T) {
	hw := hardware.DefaultCluster(16)
	lo := TrainLayerTrace(hw, model.LLaMA70B, parallel.New(16, 2, 4), 32768, 1024)
	hi := TrainLayerTrace(hw, model.LLaMA70B, parallel.New(4, 8, 4), 32768, 1024)
	if hi[1].Duration <= lo[1].Duration {
		t.Error("TP=8 collective must cost more than TP=2's")
	}
	if hi[0].Duration >= lo[0].Duration {
		t.Error("TP=8 should compute faster per layer")
	}
}

func TestSegmentsStringAndTotal(t *testing.T) {
	s := Segments{{Name: "a", Duration: 1e-3}, {Name: "b", Duration: 2e-3}}
	if math.Abs(s.Total()-3e-3) > 1e-12 {
		t.Errorf("Total = %g", s.Total())
	}
	if str := s.String(); !strings.Contains(str, "a 1000us") || !strings.Contains(str, "|") {
		t.Errorf("String() = %q", str)
	}
}

func TestPlanFractionsSumToOne(t *testing.T) {
	hw := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	models := core.PPOModels(model.LLaMA7B, model.LLaMA7B)
	p, err := baselines.BuildHeuristic(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	e := estimator.NewOracle(hw, models, true)
	res, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := PlanFractions(e, p, res)
	if err != nil {
		t.Fatal(err)
	}
	sum := f.Compute + f.P2PComm + f.CollComm + f.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %.6f, want 1", sum)
	}
	if f.Compute <= 0 {
		t.Error("compute fraction must be positive")
	}
	if f.Compute >= 1 {
		t.Error("compute cannot be all of GPU time")
	}
}

// TestReaLReducesOverheadFractions reproduces the Fig. 11 claim: a plan with
// disjoint concurrent meshes and tailored strategies spends a larger
// fraction of GPU time computing than the symmetric heuristic.
func TestReaLReducesOverheadFractions(t *testing.T) {
	hw := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	models := core.PPOModels(model.LLaMA7B, model.LLaMA7B)
	e := estimator.NewOracle(hw, models, true)

	heur, err := baselines.BuildHeuristic(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := e.Evaluate(heur)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := PlanFractions(e, heur, hres)
	if err != nil {
		t.Fatal(err)
	}

	// A hand-built ReaL-style plan: generation resharded to low TP.
	real := heur.Clone()
	genMesh := heur.Assign["ActorGen"].Mesh
	real.Assign["ActorGen"] = core.Assignment{Mesh: genMesh,
		Strategy: parallel.Strategy{DP: 8, TP: 2, PP: 1, MicroBatches: 1}}
	hres2, err := e.Evaluate(real)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := PlanFractions(e, real, hres2)
	if err != nil {
		t.Fatal(err)
	}
	if rf.CollComm >= hf.CollComm {
		t.Errorf("lower-TP generation should reduce the collective fraction: %.3f vs %.3f",
			rf.CollComm, hf.CollComm)
	}
}
