package realhf

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"realhf/internal/baselines"
	"realhf/internal/checkpoint"
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
					rep, err := pools[tr].Execute(context.Background(), prog)
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

// stepDerived snapshots what tr's last step derived from its inputs.
func stepDerived(tr *Trainer) stepState {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return *tr.steady
}

// checkCheckpointedIncumbent requires tr's checkpoint to carry its current
// incumbent: the bytes Checkpoint writes must equal a checkpoint built from
// a fresh MarshalJSON and Fingerprint of the incumbent, so cached plan bytes
// can never outlive a plan change.
func checkCheckpointedIncumbent(t *testing.T, tr *Trainer, when string) {
	t.Helper()
	var got, want bytes.Buffer
	if err := tr.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	state, err := tr.checkpointLocked()
	if err == nil {
		state.Plan, err = tr.inc.plan.MarshalJSON()
		state.PlanFingerprint = tr.inc.plan.Fingerprint()
	}
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(&want, state); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: checkpoint carries a stale incumbent:\n%s\nwant\n%s", when, got.Bytes(), want.Bytes())
	}
}

// TestTrainerProgramInvalidation: what a step derives — the executed plan,
// its estimate and its compiled program — follows the step's inputs. A
// frozen campaign keeps one plan fingerprint while its GenLen changes under
// it and resizes partway; a replanning campaign switches plans; a session
// resumed with calibration factors other than 1 sees its calibration move.
// Every iteration's makespan must equal a fresh run of the plan it executed,
// steady iterations must reuse all three, and after a resize or a switch the
// checkpoint must carry the new incumbent.
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
	// Before iteration 5 the session resizes away and back: the step's
	// workload, nodes and cluster are those of iteration 4, but the
	// incumbent is the plan the last Resize adopted.
	resizes := map[int][]int{3: {2}, 5: {1, 2}}
	var prev stepState
	for i := range lens {
		for _, nodes := range resizes[i] {
			if err := frozen.Resize(ctx, nodes); err != nil {
				t.Fatal(err)
			}
			checkCheckpointedIncumbent(t, frozen, fmt.Sprintf("after Resize(%d) before iter %d", nodes, i))
		}
		rep, err := frozen.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFreshRun(t, frozen, rep)
		checkCheckpointedIncumbent(t, frozen, fmt.Sprintf("iter %d", i))
		st := stepDerived(frozen)
		steady := i > 0 && len(resizes[i]) == 0 && lens[i] == lens[i-1]
		if steady {
			if st.exec != prev.exec || st.est != prev.est || st.prog != prev.prog {
				t.Fatalf("iter %d (GenLen %d): a steady step re-derived its plan, estimate or program", i, lens[i])
			}
		} else if i > 0 && (st.exec == prev.exec || st.prog == prev.prog) {
			t.Fatalf("iter %d (GenLen %d): a changed step reused the previous plan or program", i, lens[i])
		}
		prev = st
	}

	replan, err := planner.Train(ctx, trainerConfig(), WithGenLenSchedule(rampSchedule))
	if err != nil {
		t.Fatal(err)
	}
	defer replan.Close()
	switched := false
	for i := 0; i < 4; i++ {
		checkCheckpointedIncumbent(t, replan, fmt.Sprintf("replanning campaign before iter %d", i))
		rep, err := replan.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switched = switched || rep.Switched
		checkAgainstFreshRun(t, replan, rep)
		if rep.Switched {
			checkCheckpointedIncumbent(t, replan, fmt.Sprintf("replanning campaign after the switch at iter %d", i))
		}
	}
	if !switched {
		t.Fatal("the replanning campaign never switched plans")
	}

	// A session resumed with a calibration factor other than 1 folds its
	// first step's feedback into a new calibration, so its second step must
	// re-instantiate and estimate under the new key.
	var ckpt bytes.Buffer
	if err := frozen.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.Read(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	state.Drifted, state.Calibration = false, map[string]float64{"actor/GENERATE": 1.05}
	ckpt.Reset()
	if err := checkpoint.Write(&ckpt, state); err != nil {
		t.Fatal(err)
	}
	cfg := trainerConfig()
	cfg.GenLen = state.PlannedGenLen
	resumed, err := planner.ResumeTrain(ctx, &ckpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	var keys []string
	var derived []stepState
	for i := 0; i < 2; i++ {
		resumed.mu.Lock()
		keys = append(keys, resumed.calib.Key())
		resumed.mu.Unlock()
		rep, err := resumed.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Replanned {
			t.Fatalf("resumed step %d replanned; the calibration change must be the only moved input", i)
		}
		derived = append(derived, stepDerived(resumed))
	}
	if keys[0] == keys[1] {
		t.Fatalf("calibration key stayed %q across the resumed steps", keys[0])
	}
	if derived[1].exec == derived[0].exec || derived[1].est == derived[0].est || derived[1].prog == derived[0].prog {
		t.Fatal("a step whose calibration key changed reused the previous step's plan, estimate or program")
	}
	if derived[1].est.TimeCost == derived[0].est.TimeCost {
		t.Fatalf("estimates under calibrations %q and %q are equal (%v)", keys[0], keys[1], derived[0].est.TimeCost)
	}
}
