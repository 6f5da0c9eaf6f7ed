package realhf

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/experiments"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
	realruntime "realhf/internal/runtime"
)

// splitPlacementPlan is BenchmarkRuntimeOverlap's reallocation-heavy split
// placement: actor-side calls on node 0, critic-side calls on node 1, with a
// differently parallelized generation call.
func splitPlacementPlan(t *testing.T) *core.Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 2})
	plan := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, err := mesh.New(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := mesh.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	plan.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	plan.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	plan.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	plan.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	plan.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	plan.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}
	return plan
}

// campaignPlan is the plan a 16-node (128-GPU) 70B PPO Trainer session
// opens with.
func campaignPlan(t *testing.T) *core.Plan {
	t.Helper()
	cfg, err := PaperExperiment("ppo", "llama70b", "llama7b-critic", 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlanForOverlap = true
	exp, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exp.Plan
}

// reusePools builds a fresh fleet for plan over each transport, returning
// the pools and a teardown.
func reusePools(t *testing.T, plan *core.Plan) (map[string]*realruntime.WorkerPool, func()) {
	t.Helper()
	n, mem := plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes
	workers := make([]*realruntime.ModelWorker, n)
	for i := range workers {
		workers[i] = realruntime.NewModelWorker(i, mem)
	}
	addr, stop, err := realruntime.ServeWorkersTCP(workers)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := realruntime.NewTCPTransport(addr, n)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	pools := map[string]*realruntime.WorkerPool{
		"chan": realruntime.NewWorkerPool(n, mem),
		"tcp":  realruntime.NewWorkerPoolWith(workers, tcp),
	}
	return pools, func() {
		for _, wp := range pools {
			wp.Close()
		}
		stop()
	}
}

// TestProgramReuseMatchesFreshRun: one compiled Program executed three
// times over a persistent fleet, with Reset between runs, reproduces a fresh
// one-shot runtime.Run exactly — every report field, timeline included —
// over both transports and both stream semantics. Compiling once is only an
// optimization if re-executing the program leaks nothing between runs.
func TestProgramReuseMatchesFreshRun(t *testing.T) {
	pr := experiments.NewProblem(experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B))
	heuristic, err := baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan *core.Plan
	}{
		{"heuristic-7b-2node", heuristic},
		{"split-placement", splitPlacementPlan(t)},
		{"campaign-70b-16node", campaignPlan(t)},
	}
	for _, c := range cases {
		pools, teardown := reusePools(t, c.plan)
		for _, overlap := range []bool{false, true} {
			opts := realruntime.Options{UseCUDAGraph: true, OverlapComm: overlap}
			fresh, err := realruntime.Run(c.plan, opts)
			if err != nil {
				t.Fatalf("%s overlap=%v: %v", c.name, overlap, err)
			}
			prog, err := realruntime.Compile(c.plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []string{"chan", "tcp"} {
				for run := 0; run < 3; run++ {
					name := fmt.Sprintf("%s overlap=%v %s run %d", c.name, overlap, tr, run)
					if err := pools[tr].Reset(prog.StaticPerGPU()); err != nil {
						t.Fatalf("%s: reset: %v", name, err)
					}
					rep, err := pools[tr].Execute(prog, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(rep, fresh) {
						t.Fatalf("%s: report differs from a fresh Run (makespan %v vs %v)",
							name, rep.MakespanV, fresh.MakespanV)
					}
				}
			}
		}
		teardown()
	}
}

// TestExecuteRejectsMismatchedOptions: a program's stream semantics and
// CUDA-graph costing are fixed at compile time, so executing it under other
// options is an error rather than a silently different run.
func TestExecuteRejectsMismatchedOptions(t *testing.T) {
	plan := splitPlacementPlan(t)
	prog, err := realruntime.Compile(plan, realruntime.Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	wp := realruntime.NewWorkerPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	if err := wp.Reset(prog.StaticPerGPU()); err != nil {
		t.Fatal(err)
	}
	if _, err := wp.Execute(prog, realruntime.Options{UseCUDAGraph: true, OverlapComm: true}); err == nil {
		t.Fatal("executing a serial program under OverlapComm must fail")
	}
}

// checkAgainstFreshRun re-instantiates the plan tr executed for rep and
// requires its makespan and fingerprint to match a fresh runtime.Run of
// that plan: a stale compiled program would execute the wrong graph.
func checkAgainstFreshRun(t *testing.T, tr *Trainer, rep *IterationReport) {
	t.Helper()
	tr.mu.Lock()
	workCfg := tr.base
	workCfg.GenLen = rep.GenLen
	exec, _, err := tr.instantiateLocked(workCfg)
	opts := realruntime.Options{UseCUDAGraph: tr.run.UseCUDAGraph, OverlapComm: tr.run.OverlapComm}
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if fp := exec.Fingerprint(); fp != rep.PlanFingerprint {
		t.Fatalf("iter %d: re-instantiated plan %s, report says %s", rep.Iter, fp, rep.PlanFingerprint)
	}
	fresh, err := realruntime.Run(exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != fresh.MakespanV {
		t.Fatalf("iter %d (GenLen %d, %d nodes): makespan %v, a fresh run of the executed plan gives %v",
			rep.Iter, rep.GenLen, rep.Nodes, rep.MakespanV, fresh.MakespanV)
	}
}

// TestTrainerProgramInvalidation: the Trainer's cached program follows the
// workload and the plan. A frozen campaign keeps one plan fingerprint while
// its GenLen changes every iteration (the graph changes under it) and
// resizes partway; a replanning campaign switches plans. Every iteration's
// makespan must equal a fresh run of the plan it executed, and steady
// iterations must reuse the compiled program.
func TestTrainerProgramInvalidation(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	lens := []int{512, 256, 256, 512, 128, 128}
	frozen, err := planner.Train(ctx, trainerConfig(),
		WithFrozenPlan(), WithGenLenSchedule(func(i int) int { return lens[i%len(lens)] }))
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()
	var prev *realruntime.Program
	for i := range lens {
		if i == 3 {
			if err := frozen.Resize(ctx, 2); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := frozen.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFreshRun(t, frozen, rep)
		frozen.mu.Lock()
		prog := frozen.prog
		frozen.mu.Unlock()
		if steady := i > 0 && i != 3 && lens[i] == lens[i-1]; steady != (prog == prev) {
			t.Fatalf("iter %d (GenLen %d): program reused = %v, want %v", i, lens[i], prog == prev, steady)
		}
		prev = prog
	}

	replan, err := planner.Train(ctx, trainerConfig(), WithGenLenSchedule(rampSchedule))
	if err != nil {
		t.Fatal(err)
	}
	defer replan.Close()
	switched := false
	for i := 0; i < 4; i++ {
		rep, err := replan.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switched = switched || rep.Switched
		checkAgainstFreshRun(t, replan, rep)
	}
	if !switched {
		t.Fatal("the replanning campaign never switched plans")
	}
}
