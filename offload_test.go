package realhf

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// offloadConfig is the memory-constrained public-API workload: 7B trainable
// actor/critic with 34B frozen ref/reward on a single 4-GPU node. Every
// residency-fixed plan overflows the 80 GB devices, so the default search
// can only return an infeasible optimum; only offload-aware search finds a
// feasible plan.
func offloadConfig() ExperimentConfig {
	rpcs := PPORPCs("llama7b", "llama7b-critic")
	for i := range rpcs {
		switch rpcs[i].ModelName {
		case "ref":
			rpcs[i].ModelType = "llama34b"
		case "reward":
			rpcs[i].ModelType = "llama34b-critic"
		}
	}
	return ExperimentConfig{
		Nodes: 1, GPUsPerNode: 4, BatchSize: 64, PromptLen: 256, GenLen: 256,
		MiniBatches: 8, RPCs: rpcs, SearchSteps: 400, Seed: 5,
	}
}

// TestOffloadSearchEndToEnd is the feature's public acceptance path: the
// default search on the constrained workload reports ErrInfeasibleMemory
// (HTTP 422 through serve), the same request with OffloadSearch set finds a
// feasible plan, the plan survives the save/load round trip, and the runtime
// executes it reproducibly.
func TestOffloadSearchEndToEnd(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	ctx := context.Background()

	def, err := p.Plan(ctx, offloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := def.FeasibleMemory(); !errors.Is(err, ErrInfeasibleMemory) {
		t.Fatalf("default search: %v, want wrapped ErrInfeasibleMemory", err)
	}

	offCfg := offloadConfig()
	offCfg.OffloadSearch = true
	exp, err := p.Plan(ctx, offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.FeasibleMemory(); err != nil {
		t.Fatalf("offload-aware search still infeasible: %v", err)
	}
	offloaded := 0
	for _, n := range exp.Plan.Graph.Nodes {
		a := exp.Plan.Assign[n.Name]
		if a.Offload {
			if exp.Plan.Models[n.Role].Trainable {
				t.Fatalf("plan offloads trainable call %s", n.Name)
			}
			offloaded++
		}
	}
	if offloaded == 0 {
		t.Error("feasible plan parks no calls in host memory")
	}

	// The two requests are distinct problems and distinct plan-cache
	// entries: re-asking without OffloadSearch must still be infeasible.
	def2, err := p.Plan(ctx, offloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !def2.Cached {
		t.Error("repeated default request missed the plan cache")
	}
	if err := def2.FeasibleMemory(); !errors.Is(err, ErrInfeasibleMemory) {
		t.Error("offload-aware result leaked into the default request's cache entry")
	}

	// Save/load round trip through the public API preserves the offload
	// decisions and the estimate's feasibility.
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := exp.SavePlan(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := p.LoadExperiment(path, offloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan.Fingerprint() != exp.Plan.Fingerprint() {
		t.Error("save/load round trip changed the plan fingerprint")
	}
	if err := loaded.FeasibleMemory(); err != nil {
		t.Errorf("loaded plan re-estimated infeasible: %v", err)
	}

	// The runtime executes the offloaded plan deterministically.
	r1, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.IterationTime != r2.IterationTime || r1.ThroughputPFLOPs != r2.ThroughputPFLOPs {
		t.Errorf("runtime not reproducible: %.6f/%.6f vs %.6f/%.6f",
			r1.IterationTime, r1.ThroughputPFLOPs, r2.IterationTime, r2.ThroughputPFLOPs)
	}
	if r1.OOM {
		t.Error("runtime reported OOM for the feasible offloaded plan")
	}
}

// TestHeuristicIgnoresOffloadSearch: Heuristic runs no search, so it ignores
// OffloadSearch like every other search knob of the config — the symmetric
// plan and its estimate are those of the same config without it.
func TestHeuristicIgnoresOffloadSearch(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	plain, err := p.Heuristic(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.OffloadSearch = true
	heur, err := p.Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Plan.Fingerprint() != plain.Plan.Fingerprint() || heur.Estimate.Cost != plain.Estimate.Cost {
		t.Errorf("OffloadSearch changed the heuristic: %s (%v) vs %s (%v)",
			heur.Plan.Fingerprint(), heur.Estimate.Cost, plain.Plan.Fingerprint(), plain.Estimate.Cost)
	}
}
