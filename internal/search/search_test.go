package search

import (
	"context"
	"slices"
	"testing"
	"time"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func newProblem(t *testing.T, nodes int, actor, critic model.Config, batch, prompt, gen int) (*core.Plan, *estimator.Estimator) {
	t.Helper()
	cluster := hardware.DefaultCluster(nodes)
	g := dfg.BuildPPO(dfg.Spec{Batch: batch, PromptLen: prompt, GenLen: gen, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(actor, critic))
	return p, estimator.NewOracle(cluster, p.Models, true)
}

// greedySeed builds the greedy seed plan over the unpruned candidate space.
func greedySeed(t *testing.T, e *estimator.Estimator, p *core.Plan) *core.Plan {
	t.Helper()
	sets, _, err := candidateSets(p, PruneNone, false)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := greedyFromSets(e, p, sets)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

// mcmc runs the sequential MCMC solver through the registry.
func mcmc(t *testing.T, e *estimator.Estimator, p *core.Plan, opt Options) (Solution, Stats) {
	t.Helper()
	sol, st, err := Solve(context.Background(), "mcmc", Problem{Est: e, Plan: p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sol, st
}

func TestGreedyProducesValidPlan(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 256, 512, 512)
	seed, _, err := Solve(context.Background(), "greedy", Problem{Est: e, Plan: p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Plan.Validate(); err != nil {
		t.Fatalf("greedy plan invalid: %v", err)
	}
	if _, err := e.Evaluate(seed.Plan); err != nil {
		t.Fatalf("greedy plan unevaluable: %v", err)
	}
}

func TestSearchImprovesOnGreedy(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 256, 512, 512)
	seedRes, err := e.Evaluate(greedySeed(t, e, p))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := mcmc(t, e, p, Options{MaxSteps: 1500, Seed: 1})
	if res.Cost > seedRes.Cost {
		t.Errorf("search (%.3f) must never be worse than its seed (%.3f)", res.Cost, seedRes.Cost)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("searched plan invalid: %v", err)
	}
	if res.Estimate.OOM {
		t.Error("searched plan should be memory-feasible when feasible plans exist")
	}
}

func TestSearchDeterministicWithSeed(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 128, 256, 256)
	a, _ := mcmc(t, e, p, Options{MaxSteps: 400, Seed: 42})
	b, _ := mcmc(t, e, p, Options{MaxSteps: 400, Seed: 42})
	if a.Cost != b.Cost || a.Plan.Fingerprint() != b.Plan.Fingerprint() {
		t.Error("same seed must reproduce the same search outcome")
	}
}

func TestSearchTraceMonotone(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 256, 512, 512)
	res, st := mcmc(t, e, p, Options{MaxSteps: 800, Seed: 3})
	if len(st.Trace) == 0 {
		t.Fatal("empty search trace")
	}
	for i := 1; i < len(st.Trace); i++ {
		if st.Trace[i].BestCost > st.Trace[i-1].BestCost+1e-12 {
			t.Fatalf("best cost increased along trace: %v -> %v",
				st.Trace[i-1].BestCost, st.Trace[i].BestCost)
		}
	}
	if st.Trace[len(st.Trace)-1].BestCost != res.Cost {
		t.Error("final trace point must match result cost")
	}
}

func TestSearchBeatsSymmetricHeuristic(t *testing.T) {
	// The headline claim: the searched plan outperforms a symmetric
	// full-cluster plan for a 7B+7B PPO iteration on 2 nodes.
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 512, 1024, 1024)
	sym := p.Clone()
	full := mesh.Full(p.Cluster)
	st := parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 4}
	for _, name := range sym.CallNames() {
		sym.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	symRes, err := e.Evaluate(sym)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := mcmc(t, e, p, Options{MaxSteps: 2500, Seed: 7})
	if res.Cost >= symRes.Cost {
		t.Errorf("searched plan (%.1fs) should beat the symmetric plan (%.1fs)",
			res.Cost, symRes.Cost)
	}
}

// paperProblem is the 2-node 13B actor + 7B critic PPO problem at the
// paper's workload (dfg.PaperSpec), on which the greedy seed overflows
// device memory and the REAL-Heuristic plan fits.
func paperProblem(t *testing.T) (*core.Plan, *estimator.Estimator, *estimator.Result) {
	t.Helper()
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.PaperSpec(cluster.NumGPUs()))
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA13B, model.LLaMA7B))
	e := estimator.NewOracle(cluster, p.Models, true)
	heur, err := baselines.BuildHeuristic(cluster, g, p.Models)
	if err != nil {
		t.Fatal(err)
	}
	heurRes, err := e.Evaluate(heur)
	if err != nil {
		t.Fatal(err)
	}
	if heurRes.OOM {
		t.Fatal("the REAL-Heuristic plan must fit this problem")
	}
	return p, e, heurRes
}

// TestMCMCSeedsFromHeuristic: every MCMC solve seeds itself with the
// REAL-Heuristic plan, so a one-step walk with no caller seeds on a problem
// whose greedy seed overflows memory still returns a feasible plan no
// costlier than the heuristic.
func TestMCMCSeedsFromHeuristic(t *testing.T) {
	p, e, heurRes := paperProblem(t)
	greedyRes, err := e.Evaluate(greedySeed(t, e, p))
	if err != nil {
		t.Fatal(err)
	}
	if !greedyRes.OOM {
		t.Fatal("the greedy seed fits this problem; the test needs one that does not")
	}
	sol, _ := mcmc(t, e, p, Options{MaxSteps: 1, Seed: 1})
	if sol.Estimate.OOM || sol.Cost > heurRes.Cost {
		t.Errorf("one-step walk returned cost %.2f (OOM %t), want a feasible plan no costlier than the heuristic's %.2f",
			sol.Cost, sol.Estimate.OOM, heurRes.Cost)
	}
}

// TestRestrictCallsFreezesOtherCalls: a walk from an InitialPlan moves only
// the RestrictCalls calls. It gets no REAL-Heuristic seed, so every other
// call keeps its initial assignment even where the heuristic is cheaper.
func TestRestrictCallsFreezesOtherCalls(t *testing.T) {
	p, e, heurRes := paperProblem(t)
	initial := greedySeed(t, e, p)
	initRes, err := e.Evaluate(initial)
	if err != nil {
		t.Fatal(err)
	}
	if heurRes.Cost >= initRes.Cost {
		t.Fatalf("the heuristic (%.2f) must be cheaper than the initial plan (%.2f)", heurRes.Cost, initRes.Cost)
	}
	free := []string{"ActorGen", "CriticInf"}
	sol, st := mcmc(t, e, p, Options{MaxSteps: 300, Seed: 3, InitialPlan: initial, RestrictCalls: free})
	if st.Accepted == 0 {
		t.Error("the restricted walk accepted no move")
	}
	for _, name := range initial.CallNames() {
		if slices.Contains(free, name) {
			continue
		}
		if got := sol.Plan.Assign[name]; got != initial.Assign[name] {
			t.Errorf("frozen call %s moved from %+v to %+v", name, initial.Assign[name], got)
		}
	}
}

func TestCandidatesRespectPruning(t *testing.T) {
	p, _ := newProblem(t, 4, model.LLaMA7B, model.LLaMA7B, 256, 512, 512)
	var genNode *dfg.Node
	for _, n := range p.Graph.Nodes {
		if n.Name == "ActorGen" {
			genNode = n
		}
	}
	at := func(lvl PruneLevel) []core.Assignment {
		sets, _, err := candidateSets(p, lvl, false)
		if err != nil {
			t.Fatal(err)
		}
		return expand(sets[genNode.Name])
	}
	none, moderate, aggressive := at(PruneNone), at(PruneModerate), at(PruneAggressive)
	if len(moderate) >= len(none) {
		t.Errorf("moderate pruning did not shrink the space: %d vs %d", len(moderate), len(none))
	}
	if len(aggressive) >= len(moderate) {
		t.Errorf("aggressive pruning did not shrink further: %d vs %d", len(aggressive), len(moderate))
	}
	for _, a := range none {
		if a.Strategy.TP > p.Cluster.GPUsPerNode {
			t.Fatal("cross-node TP must always be pruned")
		}
	}
	for _, a := range moderate {
		if a.Mesh.Count > p.Cluster.GPUsPerNode {
			span := a.Mesh.Count / p.Cluster.GPUsPerNode
			if span&(span-1) != 0 {
				t.Fatalf("moderate pruning admitted non-power-of-two span %d", span)
			}
		}
	}
	for _, a := range aggressive {
		if a.Strategy.PP > 16 || a.Strategy.MicroBatches > 8 {
			t.Fatalf("aggressive pruning admitted %v", a.Strategy)
		}
	}
}

func TestShortlistCapsSpace(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 256, 512, 512)
	res, st := mcmc(t, e, p, Options{MaxSteps: 200, Seed: 1, MaxCandidatesPerCall: 10})
	// 6 calls × ≤10 candidates → log10 space ≤ 6.
	if st.SpaceLog10 > 6.001 {
		t.Errorf("capped space log10 = %.2f, want <= 6", st.SpaceLog10)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBruteForceFindsAtLeastSearchQuality(t *testing.T) {
	// On one node with a small workload, the shortlisted exhaustive search
	// must be at least as good as a short MCMC run (it is the Fig. 15
	// optimality reference).
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	bf, _, err := Solve(context.Background(), "exhaustive", Problem{Est: e, Plan: p}, Options{MaxCandidatesPerCall: 4})
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := mcmc(t, e, p, Options{MaxSteps: 300, Seed: 5})
	if bf.Cost > mc.Cost*1.02 {
		t.Errorf("brute force (%.3f) should not lose to a short MCMC run (%.3f)", bf.Cost, mc.Cost)
	}
	if err := bf.Plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSearchTimeLimit(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	start := time.Now()
	mcmc(t, e, p, Options{TimeLimit: 150 * time.Millisecond, Seed: 1})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("search ran %v, far beyond its 150ms budget", elapsed)
	}
}

func TestSearchedPlanUsesAsymmetry(t *testing.T) {
	// With similar-size actor and critic (paper Fig. 9, 7B+7B case), a good
	// plan separates actor and critic training onto disjoint resources or
	// at least differentiates assignments; verify the searched plan is not
	// fully symmetric.
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 512, 1024, 1024)
	res, _ := mcmc(t, e, p, Options{MaxSteps: 3000, Seed: 11})
	assigns := map[string]bool{}
	for _, name := range res.Plan.CallNames() {
		a := res.Plan.Assign[name]
		assigns[a.String()] = true
	}
	if len(assigns) < 2 {
		t.Error("searched plan collapsed to a single symmetric assignment")
	}
}
