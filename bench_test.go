package realhf

// One benchmark per paper table/figure. Each bench regenerates its artifact
// at a reduced-but-meaningful scale and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` reproduces the shape of the
// paper's evaluation end to end. cmd/realbench runs the same experiments at
// full paper scale.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/experiments"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
	realruntime "realhf/internal/runtime"
	"realhf/internal/search"
)

const benchSteps = 1500

// BenchmarkTable1ModelConfigs regenerates Table 1 (exact parameter counts).
func BenchmarkTable1ModelConfigs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := experiments.Table1()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTablePlans regenerates the Tables 2–5 plan listings and the
// Table 6 breakdown (quick scale).
func BenchmarkTablePlans(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, cases, err := experiments.Tables2to6(benchSteps, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
		b.ReportMetric(cases[0].HeuristicE2E[0]/cases[0].SearchedE2E[0], "speedup-vs-heuristic")
	}
}

// BenchmarkTable6Breakdown measures the searched-vs-heuristic end-to-end gap
// for the paper's small representative case including the ±CUDAGraph rows.
func BenchmarkTable6Breakdown(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunBreakdownCase("7b+7b", s, benchSteps, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.SearchedE2E[0], "real-e2e-s")
		b.ReportMetric(c.HeuristicE2E[0], "heur-e2e-s")
		b.ReportMetric(c.SearchedGen[1]/c.SearchedGen[0], "cudagraph-gen-gain")
	}
}

// BenchmarkFig2Opportunity regenerates the sequential optimization-gain
// figure.
func BenchmarkFig2Opportunity(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(s, benchSteps, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7EndToEnd compares ReaL against all baseline systems at the
// 16-GPU weak-scaling point.
func BenchmarkFig7EndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig7(model.LLaMA7B, []int{16}, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		var real, best float64
		for _, r := range rows {
			if r.System == "real" {
				real = r.PFLOPs
			} else if !r.OOM && r.PFLOPs > best {
				best = r.PFLOPs
			}
		}
		b.ReportMetric(real, "real-pflops")
		b.ReportMetric(real/best, "speedup-vs-best-baseline")
	}
}

// BenchmarkFig8Heuristic compares searched plans against the heuristic at
// context lengths 2048 and 8192.
func BenchmarkFig8Heuristic(b *testing.B) {
	b.ReportAllocs()
	combos := [][2]model.Config{{model.LLaMA7B, model.LLaMA7B}}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig8(combos, 2, []int{2048, 8192}, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Improvement, "gain-ctx2048-%")
		b.ReportMetric(100*rows[1].Improvement, "gain-ctx8192-%")
	}
}

// BenchmarkFig9Progressive regenerates the progressive-optimization walk.
func BenchmarkFig9Progressive(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	for i := 0; i < b.N; i++ {
		stages, _, err := experiments.Fig9(s, benchSteps, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stages[0].WallTime/stages[len(stages)-1].WallTime, "total-speedup")
	}
}

// BenchmarkFig10KernelTrace regenerates the simplified kernel traces.
func BenchmarkFig10KernelTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig10(16); len(out) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFig11GPUTime regenerates the GPU-time decomposition.
func BenchmarkFig11GPUTime(b *testing.B) {
	b.ReportAllocs()
	combos := [][2]model.Config{{model.LLaMA7B, model.LLaMA7B}}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig11(combos, 2, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Real.Compute, "real-compute-%")
		b.ReportMetric(100*rows[0].Heur.Compute, "heur-compute-%")
	}
}

// BenchmarkFig12Estimator regenerates the estimator-accuracy study.
func BenchmarkFig12Estimator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig12([]int{2}, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, p := range points {
			if p.RelError > worst {
				worst = p.RelError
			}
		}
		b.ReportMetric(100*worst, "max-est-error-%")
	}
}

// BenchmarkFig13Search regenerates the search-convergence curves.
func BenchmarkFig13Search(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Fig13(benchSteps, []int{2048})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(curves[0].FinalRatio(), "improvement-ratio-7b")
	}
}

// BenchmarkFig14Pruning regenerates the 1024-GPU pruning ablation (reduced
// step budget; the full run lives in cmd/realbench).
func BenchmarkFig14Pruning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Fig14(400, []int{100, 300})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(curves[0].FinalRatio(), "ratio-small-space")
		b.ReportMetric(curves[len(curves)-1].FinalRatio(), "ratio-large-space")
	}
}

// BenchmarkFig15Optimality regenerates the MCMC-vs-brute-force study.
func BenchmarkFig15Optimality(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig15(benchSteps, 4)
		if err != nil {
			b.Fatal(err)
		}
		gap := (results[0].MCMCBest - results[0].OptimalCost) / results[0].OptimalCost
		b.ReportMetric(100*gap, "gap-to-optimal-%")
	}
}

// BenchmarkFig17StrongScaling regenerates the strong-scaling study.
func BenchmarkFig17StrongScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig17([]model.Config{model.LLaMA7B}, []int{1, 2, 4}, 700)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].PFLOPs/rows[0].PFLOPs, "scaling-8-to-32gpu")
	}
}

// BenchmarkAblationNoRealloc quantifies parameter reallocation's
// contribution versus the best one-layout-per-model plan.
func BenchmarkAblationNoRealloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationNoRealloc(2, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Advantage, "realloc-advantage-%")
	}
}

// BenchmarkAblationCrossIter measures cross-iteration overlap on the
// concatenated dataflow graph.
func BenchmarkAblationCrossIter(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA13B)
	for i := 0; i < b.N; i++ {
		single, double, _, err := experiments.AblationCrossIter(s, benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(2*single-double, "overlap-saved-s")
	}
}

// BenchmarkLimitationStudy measures estimator degradation under dynamic
// generation lengths (the paper's §7 predictability limitation).
func BenchmarkLimitationStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.LimitationStudy(2, 800, []float64{0, 0.5}, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[1].EstimateErr, "est-err-at-50pct-spread-%")
	}
}

// BenchmarkSearchThroughput measures raw planner speed: MCMC steps per
// second on the 7B+7B/16-GPU problem (the quantity behind the paper's
// seconds-scale search times).
func BenchmarkSearchThroughput(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pr.SearchPlan(500, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMCMCWallClock compares plan cost at equal wall clock:
// the single-chain mcmc walker versus mcmc with max(4, GOMAXPROCS) chains
// under the same TimeLimit. Each chain scores plans through its own
// estimator session, sharing nothing between exchange barriers, and the
// solve reduces to the best chain, so its cost must stay at or below the
// single chain's (the speedup-x metric stays >= 1); with more cores the gap
// widens because chains explore concurrently instead of time-sharing.
func BenchmarkParallelMCMCWallClock(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	limit := time.Second
	chains := runtime.GOMAXPROCS(0)
	if chains < 4 {
		chains = 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single, _, err := pr.Solve(false, search.Options{
			TimeLimit: limit, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		multi, _, err := pr.Solve(false, search.Options{
			TimeLimit: limit, Seed: int64(i + 1), Chains: chains,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single.Cost, "single-chain-cost-s")
		b.ReportMetric(multi.Cost, "parallel-cost-s")
		b.ReportMetric(single.Cost/multi.Cost, "parallel-speedup-x")
	}
}

// BenchmarkOverlapAwareSearch pins the search-side ±overlap ablation: one
// workload planned under serialized and under overlapped cost semantics
// (same seed and step budget; the overlap-aware solve warm-starts from the
// serialized winner), both chosen plans executed on the overlapped runtime.
// All metrics are deterministic virtual quantities gated exactly by the CI
// bench-regression check; overlap-vs-serial-x must never exceed 1.
func BenchmarkOverlapAwareSearch(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial, _, err := pr.SearchPlan(benchSteps, 1)
		if err != nil {
			b.Fatal(err)
		}
		over, _, err := pr.Solve(true, search.Options{
			MaxSteps: benchSteps, Seed: 1, SeedCandidates: []*core.Plan{serial.Plan},
		})
		if err != nil {
			b.Fatal(err)
		}
		sRep, err := realruntime.Run(serial.Plan, realruntime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			b.Fatal(err)
		}
		oRep, err := realruntime.Run(over.Plan, realruntime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sRep.MakespanV, "serial-searched-e2e-s")
		b.ReportMetric(oRep.MakespanV, "overlap-searched-e2e-s")
		b.ReportMetric(oRep.MakespanV/sRep.MakespanV, "overlap-vs-serial-x")
	}
}

// BenchmarkOffloadSearch pins the offload-as-a-plan-dimension ablation: the
// memory-constrained 4-GPU workload (7B trainable actor/critic, 34B frozen
// ref/reward) solved by the default search — whose optimum is infeasible —
// and by the same seed/step budget with OffloadSearch, whose winner must fit
// device memory by parking frozen calls in host memory. Every metric is a
// deterministic virtual quantity gated exactly by the CI bench-regression
// check: default-oom must stay 1, offload-oom must stay 0.
func BenchmarkOffloadSearch(b *testing.B) {
	b.ReportAllocs()
	pr := experiments.OffloadProblem()
	const offloadBenchSteps = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		def, _, err := pr.SearchPlan(offloadBenchSteps, 60)
		if err != nil {
			b.Fatal(err)
		}
		off, _, err := pr.Solve(false, search.Options{
			MaxSteps: offloadBenchSteps, Seed: 60, OffloadSearch: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		offloaded := 0
		for _, a := range off.Plan.Assign {
			if a.Offload {
				offloaded++
			}
		}
		b.ReportMetric(boolMetric(def.Estimate.OOM), "default-oom")
		b.ReportMetric(boolMetric(off.Estimate.OOM), "offload-oom")
		b.ReportMetric(float64(offloaded), "offloaded-calls")
		b.ReportMetric(float64(def.Estimate.MaxMem)/(1<<30), "default-maxmem-gb")
		b.ReportMetric(float64(off.Estimate.MaxMem)/(1<<30), "offload-maxmem-gb")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkTrainerReplan pins the training-campaign ablation behind the
// Trainer session API: the same 4-iteration generation-length ramp
// (1024 -> 128, the paper's §8 drift scenario) executed by a frozen-plan
// baseline and by the replanning Trainer, both over persistent worker
// pools. Every metric is a deterministic virtual quantity (step-bounded
// seed-fixed searches, virtual runtime), gated exactly by the CI
// bench-regression check; replan-vs-frozen-x must stay below 1 — the
// replanning campaign wins even after paying every charged plan-switch
// reallocation (replan-switch-s).
func BenchmarkTrainerReplan(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	const iters = 4
	for i := 0; i < b.N; i++ {
		planner := NewPlanner(ClusterConfig{})
		frozenTr, err := planner.Train(ctx, trainerConfig(),
			WithGenLenSchedule(rampSchedule), WithFrozenPlan())
		if err != nil {
			b.Fatal(err)
		}
		frozen, err := frozenTr.Campaign(ctx, iters)
		if err != nil {
			b.Fatal(err)
		}
		frozenTr.Close()
		replanTr, err := planner.Train(ctx, trainerConfig(), WithGenLenSchedule(rampSchedule))
		if err != nil {
			b.Fatal(err)
		}
		replan, err := replanTr.Campaign(ctx, iters)
		if err != nil {
			b.Fatal(err)
		}
		replanTr.Close()
		b.ReportMetric(frozen.TotalMakespanV, "frozen-campaign-s")
		b.ReportMetric(replan.TotalMakespanV, "replan-campaign-s")
		b.ReportMetric(replan.TotalMakespanV/frozen.TotalMakespanV, "replan-vs-frozen-x")
		b.ReportMetric(replan.SwitchCostV, "replan-switch-s")
		b.ReportMetric(float64(replan.Replans), "replans")
	}
}

// BenchmarkTrainerStep measures one steady campaign step of the 16-node
// (128-GPU) 70B PPO session: a frozen plan at a fixed workload, so every
// timed Step reuses the executed plan, estimate and program the first step
// derived, and pays only for the fence Reset and dispatch over the
// persistent fleet. makespan-s is the step's virtual time, deterministic
// and gated exactly.
func BenchmarkTrainerStep(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	cfg, err := PaperExperiment("ppo", "llama70b", "llama7b-critic", 16, 512)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewPlanner(ClusterConfig{}).Train(ctx, cfg, WithFrozenPlan())
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	// The first step pays the session's one-off costs.
	if _, err := tr.Step(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *IterationReport
	for i := 0; i < b.N; i++ {
		if rep, err = tr.Step(ctx); err != nil {
			b.Fatal(err)
		}
		if rep.OOM {
			b.Fatalf("steady step ran out of memory: %v", rep.Errors)
		}
	}
	b.StopTimer()
	b.ReportMetric(rep.MakespanV, "makespan-s")
}

// BenchmarkShrinkReplan measures the price of surviving a worker loss: a
// 2-node campaign loses a device at the iteration-1 boundary, shrink-replans
// onto the surviving node and finishes degraded, against the same campaign
// running fault-free. Every metric is a deterministic virtual quantity (the
// failed attempt's partial progress is discarded on re-execution), so CI
// pins them exactly: the degraded campaign must cost more than the healthy
// one, by the survivor-mesh slowdown plus the charged §5 reallocation.
func BenchmarkShrinkReplan(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	const iters = 4
	cfg := trainerConfig()
	cfg.Nodes = 2
	for i := 0; i < b.N; i++ {
		planner := NewPlanner(ClusterConfig{})
		healthyTr, err := planner.Train(ctx, cfg, WithFrozenPlan())
		if err != nil {
			b.Fatal(err)
		}
		healthy, err := healthyTr.Campaign(ctx, iters)
		if err != nil {
			b.Fatal(err)
		}
		healthyTr.Close()

		rig := &chaosRig{}
		var shrinkTr *Trainer
		shrinkTr, err = planner.Train(ctx, cfg,
			WithWorkerPoolFactory(rig.factory),
			WithIterationProgress(func(r IterationReport) {
				if r.Iter == 1 {
					rig.transport().Fail(5, realruntime.FaultKill)
				}
			}))
		if err != nil {
			b.Fatal(err)
		}
		shrink, err := shrinkTr.Campaign(ctx, iters)
		if err != nil {
			b.Fatal(err)
		}
		if shrink.WorkerFailures != 1 || shrinkTr.Stats().Nodes != 1 {
			b.Fatalf("campaign did not shrink: %+v", shrink)
		}
		shrinkTr.Close()

		b.ReportMetric(healthy.TotalMakespanV, "healthy-campaign-s")
		b.ReportMetric(shrink.TotalMakespanV, "shrink-campaign-s")
		b.ReportMetric(shrink.TotalMakespanV/healthy.TotalMakespanV, "shrink-vs-healthy-x")
		b.ReportMetric(shrink.SwitchCostV, "shrink-switch-s")
		b.ReportMetric(float64(shrink.WorkerFailures), "lost-workers")
	}
}

// BenchmarkPlannerCachedPlan measures the steady-state cost of a Planner
// session answering a repeated request from the plan cache — no MCMC, no
// estimator work, one keyed lookup plus a private plan clone. The
// deterministic custom metrics pin the cache-hit semantics in CI: every
// timed iteration must be a hit and must return exactly the originally
// solved cost.
func BenchmarkPlannerCachedPlan(b *testing.B) {
	b.ReportAllocs()
	planner := NewPlanner(ClusterConfig{})
	cfg := ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: 300, Seed: 1,
	}
	warm, err := planner.Plan(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	hits := 0
	cost := warm.Estimate.Cost
	for i := 0; i < b.N; i++ {
		exp, err := planner.Plan(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if exp.Cached {
			hits++
		}
		cost = exp.Estimate.Cost
	}
	b.ReportMetric(100*float64(hits)/float64(b.N), "plan-cache-hit-%")
	b.ReportMetric(cost, "cached-cost-s")
	b.ReportMetric(cost/warm.Estimate.Cost, "cost-ratio-vs-solve")
}

// BenchmarkPlannerColdSolve measures one paper-scale cold solve: a fresh
// Planner plans the 16-node 70B+7B PPO problem (batch 512, 1024+1024
// tokens) at 4,000 MCMC steps and a fixed seed. plan-cost-s and space-log10
// are deterministic, so the CI gate pins the plan and the pruned space;
// allocs/op and B/op grow with the cluster if the candidate space is ever
// materialized per mesh position again.
func BenchmarkPlannerColdSolve(b *testing.B) {
	b.ReportAllocs()
	cfg, err := PaperExperiment("ppo", "llama70b", "llama7b-critic", 16, 512)
	if err != nil {
		b.Fatal(err)
	}
	cfg.SearchSteps = 4000
	cfg.Seed = 1
	var exp *Experiment
	for i := 0; i < b.N; i++ {
		exp, err = NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(exp.Estimate.Cost, "plan-cost-s")
	b.ReportMetric(exp.SearchStats.SpaceLog10, "space-log10")
}

// BenchmarkEstimatorEvaluate measures one cost-estimation call — the paper
// quotes hundreds of microseconds per candidate plan.
func BenchmarkEstimatorEvaluate(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	plan, err := baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Est.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorDelta measures the incremental re-costing path the MCMC
// inner loop rides: a warmed EvalSession re-evaluating a plan that differs by
// one call's assignment per step. Alongside time and allocations it reports
// the session's per-eval node counts, which are deterministic: graph-nodes is
// the augmented-graph size, and recost-nodes must be 0 once both variants are
// warm — every step is answered from the per-slot signature memo.
func BenchmarkEstimatorDelta(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	plan, err := baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
	if err != nil {
		b.Fatal(err)
	}
	// Two legal assignments for one call, differing only in micro-batching:
	// the single-RPC mutation shape the solver proposes.
	const mutated = "ActorTrain"
	base := plan.Assign[mutated]
	alt := base
	if alt.Strategy.MicroBatches == 1 {
		alt.Strategy.MicroBatches = 2
	} else {
		alt.Strategy.MicroBatches = 1
	}
	variants := [2]core.Assignment{base, alt}
	sess := pr.Est.NewSession(nil)
	for _, v := range variants {
		plan.Assign[mutated] = v
		if err := plan.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Assign[mutated] = variants[i%2]
		if _, err := sess.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// A fixed two-eval probe (one per variant) keeps the reported counts
	// independent of b.N: the variants' augmented graphs differ in size, so
	// averaging over the timed loop would depend on its parity.
	st0 := sess.Stats()
	for _, v := range variants {
		plan.Assign[mutated] = v
		if _, err := sess.Evaluate(plan); err != nil {
			b.Fatal(err)
		}
	}
	st := sess.Stats()
	b.ReportMetric(float64(st.NodeLookups-st0.NodeLookups)/2, "graph-nodes")
	b.ReportMetric(float64(st.NodeRecosts-st0.NodeRecosts)/2, "recost-nodes")
}

// BenchmarkRuntimeExecution measures the runtime engine's dispatch loop
// (master + 16 workers, one PPO iteration).
func BenchmarkRuntimeExecution(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	plan, err := baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := realruntime.Run(plan, realruntime.Options{UseCUDAGraph: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeOverlap executes a reallocation-heavy split placement with
// the comm stream off and on, reporting the virtual-time ±overlap ablation.
// All reported metrics are deterministic virtual quantities — the CI
// bench-regression gate pins them exactly (within float tolerance), while
// ns/op tracks the physical dispatch loop.
func BenchmarkRuntimeOverlap(b *testing.B) {
	b.ReportAllocs()
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 2})
	plan := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, err := mesh.New(0, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	m1, err := mesh.New(8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	plan.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	plan.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	plan.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	plan.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	plan.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	plan.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial, err := realruntime.Run(plan, realruntime.Options{UseCUDAGraph: true})
		if err != nil {
			b.Fatal(err)
		}
		over, err := realruntime.Run(plan, realruntime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(serial.MakespanV, "serial-e2e-s")
		b.ReportMetric(over.MakespanV, "overlap-e2e-s")
		b.ReportMetric(serial.CommTimeV, "comm-s")
		b.ReportMetric(100*(serial.MakespanV-over.MakespanV)/serial.CommTimeV, "comm-hidden-%")
	}
}

// BenchmarkGreedySeed measures greedy seed-plan construction over the full
// candidate space, through the solver registry (which also scores the seed).
func BenchmarkGreedySeed(b *testing.B) {
	b.ReportAllocs()
	s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	pr := experiments.NewProblem(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := search.Solve(context.Background(), "greedy", pr.SearchProblem(false), search.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
