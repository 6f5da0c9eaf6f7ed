package search

import (
	"context"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
)

// offloadProblem builds a memory-constrained single-node PPO problem: 7B
// trainable actor/critic plus 34B frozen ref/reward on 4 GPUs (320 GB). The
// frozen resting copies alone (~34 GB/GPU on top of ~56 GB/GPU of training
// state) push every residency-fixed plan past the 80 GB HBM, while parking
// the frozen weights in host memory leaves room for the working copies.
func offloadProblem(t *testing.T, batch, prompt, gen int) (*core.Plan, *estimator.Estimator) {
	t.Helper()
	cluster := hardware.DefaultCluster(1)
	cluster.GPUsPerNode = 4
	g := dfg.BuildPPO(dfg.Spec{Batch: batch, PromptLen: prompt, GenLen: gen, Iterations: 1})
	models := core.PPOModels(model.LLaMA7B, model.LLaMA7B)
	ref := models[dfg.Ref]
	ref.Cfg = model.LLaMA34B
	models[dfg.Ref] = ref
	rw := models[dfg.Reward]
	rw.Cfg = model.LLaMA34B
	models[dfg.Reward] = rw
	p := core.NewPlan(cluster, g, models)
	return p, estimator.NewOracle(cluster, p.Models, true)
}

func TestCandidatesEmitOffloadVariants(t *testing.T) {
	p, _ := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	byName := nodesByName(p)

	sets, _, err := candidateSets(p, PruneNone, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, cs := range sets {
		ms := p.Models[byName[name].Role]
		var resident, offloaded int
		for _, a := range expand(cs) {
			if a.Offload {
				offloaded++
			} else {
				resident++
			}
		}
		if ms.Trainable {
			if offloaded != 0 {
				t.Errorf("%s: %d offloaded candidates on a trainable role", name, offloaded)
			}
			continue
		}
		if offloaded == 0 || resident == 0 || offloaded != resident {
			t.Errorf("%s: frozen role must get both residency variants of every assignment, got %d resident / %d offloaded",
				name, resident, offloaded)
		}
	}

	// With offload search off, every candidate keeps its parameters
	// device-resident.
	sets, _, err = candidateSets(p, PruneNone, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, cs := range sets {
		for _, a := range expand(cs) {
			if a.Offload {
				t.Fatalf("%s: offloaded candidate without offload search", name)
			}
		}
	}
}

// TestCostCacheOffloadDistinct: plans differing only in one call's Offload
// bit are distinct cache entries — an infeasible residency-fixed plan must
// never be answered with (or poisoned by) its feasible offloaded twin.
func TestCostCacheOffloadDistinct(t *testing.T) {
	p, e := offloadProblem(t, 64, 256, 256)
	seed := greedySeed(t, e, p)
	off := seed.Clone()
	for _, n := range off.Graph.Nodes {
		if !off.Models[n.Role].Trainable {
			a := off.Assign[n.Name]
			a.Offload = true
			off.Assign[n.Name] = a
		}
	}
	if seed.Fingerprint() == off.Fingerprint() {
		t.Fatal("offload-distinct plans share a fingerprint")
	}

	cache := NewCostCache()
	r1, err := cache.Evaluate(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.Evaluate(e, off)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MaxMem >= r1.MaxMem {
		t.Errorf("offloading every frozen call did not reduce peak memory: %d vs %d", r2.MaxMem, r1.MaxMem)
	}
	again, err := cache.Evaluate(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	if again != r1 || again.OOM != r1.OOM || again.MaxMem != r1.MaxMem {
		t.Error("re-evaluating the residency-fixed plan returned a different entry")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d plan entries, want 2", cache.Len())
	}
}

// TestOffloadSearchFindsFeasiblePlan is the feature's core promise: on a
// problem where every residency-fixed plan overflows HBM, the default search
// can only return an infeasible optimum, while the offload-aware search
// finds a feasible plan by parking frozen weights in host memory.
func TestOffloadSearchFindsFeasiblePlan(t *testing.T) {
	p, e := offloadProblem(t, 64, 256, 256)
	prob := Problem{Est: e, Plan: p}
	solver, err := New("mcmc")
	if err != nil {
		t.Fatal(err)
	}

	def, _, err := solver.Solve(context.Background(), prob, Options{Seed: 1, MaxSteps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Estimate.OOM {
		t.Fatalf("default search found a feasible plan (max %d bytes/GPU); the problem is not memory-constrained enough",
			def.Estimate.MaxMem)
	}

	sol, _, err := solver.Solve(context.Background(), prob, Options{Seed: 1, MaxSteps: 400, OffloadSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Estimate.OOM {
		t.Fatalf("offload-aware search still infeasible: max %d bytes/GPU over %d HBM",
			sol.Estimate.MaxMem, p.Cluster.GPU.MemoryBytes)
	}
	offloaded := 0
	for _, n := range sol.Plan.Graph.Nodes {
		if sol.Plan.Assign[n.Name].Offload {
			if sol.Plan.Models[n.Role].Trainable {
				t.Fatalf("searched plan offloads trainable call %s", n.Name)
			}
			offloaded++
		}
	}
	if offloaded == 0 {
		t.Error("feasible plan uses no offload — the constraint should have forced it")
	}
	if err := sol.Plan.Validate(); err != nil {
		t.Errorf("searched plan invalid: %v", err)
	}
}

// TestOffloadSearchDeterministic: the offload-aware solve is seeded and
// step-bounded like every other, so equal seeds give byte-identical plans.
func TestOffloadSearchDeterministic(t *testing.T) {
	p, e := offloadProblem(t, 64, 256, 256)
	prob := Problem{Est: e, Plan: p}
	for _, chains := range []int{1, 2} {
		opt := Options{Seed: 7, MaxSteps: 200, Chains: chains, OffloadSearch: true}
		a, _, err := mcmcSolver{}.Solve(context.Background(), prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := mcmcSolver{}.Solve(context.Background(), prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Plan.Fingerprint() != b.Plan.Fingerprint() {
			t.Errorf("%d chains: offload-aware solve not deterministic", chains)
		}
	}
}
