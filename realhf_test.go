package realhf

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func quickConfig() ExperimentConfig {
	return ExperimentConfig{
		Nodes: 2, BatchSize: 256, PromptLen: 512, GenLen: 512,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: 800, Seed: 7,
	}
}

// solveFresh plans cfg on a fresh Planner session, so no test inherits
// another's plan or cost caches.
func solveFresh(cfg ExperimentConfig) (*Experiment, error) {
	return NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
}

func TestAutoProducesRunnablePlan(t *testing.T) {
	exp, err := solveFresh(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Plan.Validate(); err != nil {
		t.Fatalf("auto plan invalid: %v", err)
	}
	if exp.Estimate.OOM {
		t.Error("auto plan should be memory-feasible")
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Fatalf("run OOMed: %v", rep.Errors)
	}
	if rep.IterationTime <= 0 || rep.ThroughputPFLOPs <= 0 {
		t.Errorf("bad report: %+v", rep)
	}
	if len(rep.CallTimes) != 6 {
		t.Errorf("expected 6 calls, got %d", len(rep.CallTimes))
	}
}

func TestAutoBeatsHeuristic(t *testing.T) {
	cfg := quickConfig()
	cfg.BatchSize = 512
	cfg.PromptLen, cfg.GenLen = 1024, 1024
	cfg.SearchSteps = 2000
	p := NewPlanner(ClusterConfig{})
	auto, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := p.Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := auto.Run()
	if err != nil {
		t.Fatal(err)
	}
	hr, err := heur.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ar.IterationTime > hr.IterationTime {
		t.Errorf("auto (%.1fs) lost to heuristic (%.1fs)", ar.IterationTime, hr.IterationTime)
	}
}

func TestPPORPCsWiring(t *testing.T) {
	rpcs := PPORPCs("llama7b", "llama7b-critic")
	if len(rpcs) != 6 {
		t.Fatalf("PPO has %d RPCs, want 6", len(rpcs))
	}
	cfg := quickConfig()
	g, models, err := buildGraph(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 6 {
		t.Errorf("graph has %d nodes, want 6", len(g.Nodes))
	}
	if !models["actor"].Trainable || !models["critic"].Trainable {
		t.Error("actor and critic must be trainable")
	}
	if models["ref"].Trainable || models["reward"].Trainable {
		t.Error("ref and reward must be frozen")
	}
	if !models["critic"].IsCritic || !models["reward"].IsCritic {
		t.Error("critic-typed models must be scalar-head")
	}
	// actor/GENERATE feeds the three inferences and both trainings (its
	// sequences and log-probs are training inputs).
	var gen int
	for _, n := range g.Nodes {
		if n.Name == "actor/GENERATE" {
			gen = len(g.Children(n))
		}
	}
	if gen != 5 {
		t.Errorf("generation feeds %d calls, want 5", gen)
	}
}

func TestBuildGraphRejectsBadInput(t *testing.T) {
	cfg := quickConfig()
	cfg.RPCs = nil
	if _, err := solveFresh(cfg); err == nil {
		t.Error("empty RPC list must fail")
	}
	cfg = quickConfig()
	cfg.RPCs = append([]ModelFunctionCallDef{}, cfg.RPCs...)
	cfg.RPCs[0].ModelType = "gpt99"
	if _, err := solveFresh(cfg); err == nil {
		t.Error("unknown model type must fail")
	}
	cfg = quickConfig()
	cfg.RPCs = append([]ModelFunctionCallDef{}, cfg.RPCs...)
	cfg.RPCs[4] = ModelFunctionCallDef{ModelName: "actor", ModelType: "llama13b",
		InterfaceType: TrainStep, InputData: []string{"seq"}}
	if _, err := solveFresh(cfg); err == nil {
		t.Error("conflicting architectures for one model must fail")
	}
	cfg = quickConfig()
	cfg.Nodes = 0
	if _, err := solveFresh(cfg); err == nil {
		t.Error("zero nodes must fail")
	}
	// A second unnamed reward inference takes the first one's default name,
	// "reward/INFERENCE": keyed by name, the two would be planned and priced
	// as one call.
	cfg = quickConfig()
	second := cfg.RPCs[1]
	second.BatchScale, second.OutputData = 4, []string{"r2"}
	cfg.RPCs = append(append([]ModelFunctionCallDef{}, cfg.RPCs...), second)
	if _, err := solveFresh(cfg); !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), `"reward/INFERENCE"`) {
		t.Errorf("repeated call name: %v, want ErrInvalidConfig naming the call", err)
	}
}

func TestMultiIterationGraph(t *testing.T) {
	cfg := quickConfig()
	cfg.Iterations = 2
	cfg.SearchSteps = 300
	exp, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(exp.Plan.Graph.Nodes); got != 12 {
		t.Errorf("2-iteration graph has %d nodes, want 12", got)
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterationTime <= 0 {
		t.Error("per-iteration time must be positive")
	}
}

func TestPlanTableRendering(t *testing.T) {
	exp, err := solveFresh(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := exp.PlanTable()
	for _, want := range []string{"actor/GENERATE", "TP", "DP", "PP"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("plan table missing %q:\n%s", want, tbl)
		}
	}
}

func TestCustomWorkflow(t *testing.T) {
	// A DPO-style two-call workflow through the public API.
	cfg := ExperimentConfig{
		Nodes: 1, BatchSize: 128, PromptLen: 512, GenLen: 512,
		SearchSteps: 400, Seed: 3,
		RPCs: []ModelFunctionCallDef{
			{ModelName: "ref", ModelType: "llama7b", InterfaceType: Inference,
				InputData: []string{"pairs"}, OutputData: []string{"ref_logp"}},
			{ModelName: "actor", ModelType: "llama7b", InterfaceType: TrainStep,
				InputData: []string{"pairs", "ref_logp"}},
		},
	}
	exp, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CallTimes) != 2 {
		t.Errorf("DPO workflow has %d calls, want 2", len(rep.CallTimes))
	}
}

// TestFig16AlgorithmsImprove regenerates the beyond-PPO comparison (paper
// Fig. 16) on the public path: one Planner session plans the DPO, GRPO and
// ReMax presets (2 nodes, 13B actor, 7B reward) and runs each searched plan
// against the REAL-Heuristic plan. ReaL must never lose by more than 2%, and
// ReMax must gain more than GRPO: ReaL runs ReMax's two generation calls
// concurrently, while GRPO's 8x grouped batch is compute-bounded with little
// overhead to remove.
func TestFig16AlgorithmsImprove(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	gain := map[string]float64{}
	for i, algo := range []string{"dpo", "grpo", "remax"} {
		cfg, err := PaperExperiment(algo, "llama13b", "llama7b-critic", 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SearchSteps, cfg.Seed = 1200, int64(1000+i)
		exp, err := p.Plan(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		heur, err := p.Heuristic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hrep, err := heur.Run()
		if err != nil {
			t.Fatal(err)
		}
		gain[algo] = (rep.ThroughputPFLOPs - hrep.ThroughputPFLOPs) / hrep.ThroughputPFLOPs
		t.Logf("%s: heuristic %.2f PF/s, ReaL %.2f PF/s (%+.1f%%)",
			algo, hrep.ThroughputPFLOPs, rep.ThroughputPFLOPs, 100*gain[algo])
		if gain[algo] < -0.02 {
			t.Errorf("%s: ReaL lost to the heuristic by %.1f%%", algo, -100*gain[algo])
		}
	}
	if gain["remax"] <= gain["grpo"] {
		t.Errorf("ReMax gain %.1f%% should exceed GRPO gain %.1f%%", 100*gain["remax"], 100*gain["grpo"])
	}
}

func TestInterfaceTypeString(t *testing.T) {
	if Generate.String() != "GENERATE" || TrainStep.String() != "TRAIN_STEP" {
		t.Error("InterfaceType strings wrong")
	}
}

func TestAutoSolverSelection(t *testing.T) {
	cfg := quickConfig()
	cfg.SearchSteps = 300

	base, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Explicit "mcmc" must match the default-solver plan exactly (solved
	// afresh, not answered from a shared plan cache).
	cfg.Solver = "mcmc"
	same, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Plan.Fingerprint() != same.Plan.Fingerprint() {
		t.Error("explicit mcmc solver must reproduce the default plan")
	}

	// SearchParallelism > 1 runs that many mcmc chains and reports
	// per-chain stats.
	cfg.Solver = ""
	cfg.SearchParallelism = 3
	par, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Plan.Validate(); err != nil {
		t.Fatalf("parallel-searched plan invalid: %v", err)
	}
	if len(par.SearchStats.Chains) != 3 {
		t.Errorf("want 3 chain stats, got %d", len(par.SearchStats.Chains))
	}
	if par.Estimate.Cost > base.Estimate.Cost*1.001 {
		t.Errorf("3 chains (%.3f) should not lose to one (%.3f)",
			par.Estimate.Cost, base.Estimate.Cost)
	}

	// Unknown solver names fail fast.
	cfg.Solver = "simulated-annealing"
	if _, err := solveFresh(cfg); err == nil {
		t.Error("unknown solver name must error")
	}
}

func TestAutoDeterministicAcrossSolverRuns(t *testing.T) {
	cfg := quickConfig()
	cfg.SearchSteps = 300
	cfg.SearchParallelism = 2
	a, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Fingerprint() != b.Plan.Fingerprint() {
		t.Error("same seed must reproduce the same parallel-searched plan")
	}
	if a.Cached || b.Cached {
		t.Error("fresh sessions must solve, not answer from a plan cache")
	}
	if a.SearchStats.CacheHits+a.SearchStats.CacheMisses == 0 {
		t.Error("search stats must report cost-cache counters")
	}
}

func TestRunWithOverlapKnob(t *testing.T) {
	exp, err := solveFresh(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	over, err := exp.RunWith(RunOptions{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := exp.RunWith(RunOptions{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if !over.OverlapComm || serial.OverlapComm {
		t.Error("RunReport must echo the OverlapComm option")
	}
	if over.IterationTime > serial.IterationTime+1e-9 {
		t.Errorf("overlapped run (%.2fs) must not lose to serialized (%.2fs)",
			over.IterationTime, serial.IterationTime)
	}
	// Run() uses DefaultRunOptions (overlap on).
	def, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !def.OverlapComm {
		t.Error("Run() must execute under DefaultRunOptions (overlap on)")
	}
	if def.IterationTime != over.IterationTime {
		t.Errorf("Run() (%.6f) must match RunWith(DefaultRunOptions()) (%.6f)",
			def.IterationTime, over.IterationTime)
	}
}
