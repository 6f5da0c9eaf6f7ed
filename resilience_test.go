package realhf

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"realhf/internal/checkpoint"
	"realhf/internal/runtime"
)

// chaosRig builds Trainer worker fleets whose chan transport is wrapped in
// a runtime.FaultyTransport, and remembers the latest fleet's wrapper so a
// test can arm faults against whatever fleet the session currently runs.
type chaosRig struct {
	mu sync.Mutex
	ft *runtime.FaultyTransport
}

func (r *chaosRig) factory(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
	workers := make([]*runtime.ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, memoryBytes)
	}
	ft := runtime.NewFaultyTransport(runtime.NewChanTransport(workers))
	r.mu.Lock()
	r.ft = ft
	r.mu.Unlock()
	return runtime.NewWorkerPoolWith(workers, ft), nil
}

func (r *chaosRig) transport() *runtime.FaultyTransport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ft
}

// TestTrainerShrinkReplanOnWorkerLoss: killing a worker mid-campaign must
// not end the session — the Trainer evicts the dead device's node,
// replans onto the survivor mesh, charges the §5 reallocation, re-executes
// the iteration there, and keeps the campaign's accounting consistent.
func TestTrainerShrinkReplanOnWorkerLoss(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	rig := &chaosRig{}
	cfg := trainerConfig()
	cfg.Nodes = 2

	tr, err := planner.Train(ctx, cfg, WithWorkerPoolFactory(rig.factory))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	first, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.WorkerLost || first.Nodes != 2 {
		t.Fatalf("healthy iteration reported %+v", first)
	}

	rig.transport().Fail(3, runtime.FaultKill)
	rep, err := tr.Step(ctx)
	if err != nil {
		t.Fatalf("Step with a killed worker must shrink and survive, got %v", err)
	}
	if !rep.WorkerLost || len(rep.LostGPUs) != 1 || rep.LostGPUs[0] != 3 {
		t.Fatalf("loss not recorded: %+v", rep)
	}
	if rep.Nodes != 1 {
		t.Fatalf("iteration after shrink ran on %d nodes, want 1", rep.Nodes)
	}
	if !rep.Replanned || !rep.Switched {
		t.Fatalf("shrink must replan and switch: %+v", rep)
	}
	if rep.ReallocSwitchCost <= 0 {
		t.Fatal("shrink must charge a positive reallocation cost")
	}
	if rep.MakespanV <= first.MakespanV {
		t.Fatalf("degraded makespan %.3f must exceed the 2-node %.3f", rep.MakespanV, first.MakespanV)
	}

	st := tr.Stats()
	if st.Nodes != 1 || st.WorkerFailures != 1 {
		t.Fatalf("stats after shrink: %+v", st)
	}

	// The campaign keeps running on the survivor fleet.
	next, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if next.WorkerLost || next.Nodes != 1 {
		t.Fatalf("post-shrink iteration: %+v", next)
	}
}

// TestTrainerWorkerLossNoSurvivors: losing a worker on the last remaining
// node cannot be recovered by shrinking — the step must fail with the
// package sentinel (for taxonomy dispatch) and the typed runtime error
// (naming the device) both in the chain.
func TestTrainerWorkerLossNoSurvivors(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	rig := &chaosRig{}

	tr, err := planner.Train(ctx, trainerConfig(), WithWorkerPoolFactory(rig.factory))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	rig.transport().Fail(0, runtime.FaultKill)
	_, err = tr.Step(ctx)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("Step = %v, want ErrWorkerLost in the chain", err)
	}
	var lost *runtime.ErrWorkerLost
	if !errors.As(err, &lost) || lost.GPU != 0 {
		t.Fatalf("Step = %v, want *runtime.ErrWorkerLost on gpu 0", err)
	}
	st := tr.Stats()
	if st.WorkerFailures != 1 {
		t.Fatalf("unrecovered loss must still count: %+v", st)
	}
}

// TestTrainerCampaignPartialReportOnLoss: a campaign ended by an
// unrecoverable loss hands back the completed prefix with
// CompletedIterations consistent with the accounting.
func TestTrainerCampaignPartialReportOnLoss(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	rig := &chaosRig{}

	tr, err := planner.Train(ctx, trainerConfig(),
		WithWorkerPoolFactory(rig.factory),
		WithIterationProgress(func(r IterationReport) {
			if r.Iter == 1 {
				rig.transport().Fail(2, runtime.FaultKill)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	rep, err := tr.Campaign(ctx, 4)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("campaign = %v, want ErrWorkerLost", err)
	}
	if rep == nil {
		t.Fatal("failed campaign must return the partial report")
	}
	if rep.CompletedIterations != 2 || len(rep.Iterations) != 2 {
		t.Fatalf("partial report completed %d/%d iterations, want 2", rep.CompletedIterations, len(rep.Iterations))
	}
	var sum float64
	for _, r := range rep.Iterations {
		sum += r.MakespanV + r.ReallocSwitchCost
	}
	if sum != rep.TotalMakespanV {
		t.Fatalf("partial total %.4f != per-iteration sum %.4f", rep.TotalMakespanV, sum)
	}
}

// errFleet is the error failAfter's factories return.
var errFleet = errors.New("worker fleet unavailable")

// failAfter wraps a pool factory so that every call after the first n fails
// with errFleet. The Trainer calls its factory with the session locked, so
// the counter needs no lock of its own.
func failAfter(n int, build WorkerPoolFactory) WorkerPoolFactory {
	calls := 0
	return func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
		if calls++; calls > n {
			return nil, errFleet
		}
		return build(numGPUs, memoryBytes)
	}
}

// TestTrainerMoveCommitsOnSuccess: a plan move whose fleet rebuild fails
// changes nothing but the fleet. A Resize whose pool factory fails returns
// the factory's error and leaves the node count, plan, counters and pending
// switch charge as they were, so a session resumed from a checkpoint taken
// after it charges no switch. A worker-loss shrink whose rebuild fails ends
// the step with ErrWorkerLost and charges and counts no switch. Either way
// the old fleet was closed before the factory ran, so the next Step asks the
// factory again, and fails with ErrWorkerLost because it fails again.
func TestTrainerMoveCommitsOnSuccess(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	inProcess := func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
		return runtime.NewWorkerPool(numGPUs, memoryBytes), nil
	}
	tr, err := planner.Train(ctx, trainerConfig(), WithWorkerPoolFactory(failAfter(1, inProcess)))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats()
	if err := tr.Resize(ctx, 2); !errors.Is(err, errFleet) {
		t.Fatalf("Resize with a failing pool factory = %v, want the factory's error", err)
	}
	if after := tr.Stats(); before.Nodes != 1 || !reflect.DeepEqual(after, before) {
		t.Errorf("a failed Resize moved the session:\n got %+v\nwant %+v", after, before)
	}
	var ckpt bytes.Buffer
	if err := tr.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumed, err := planner.ResumeTrain(ctx, &ckpt, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	rep, err := resumed.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReallocSwitchCost != 0 || rep.Nodes != 1 {
		t.Errorf("resumed after a failed Resize: step on %d nodes charged %.3fs, want 1 node and no charge",
			rep.Nodes, rep.ReallocSwitchCost)
	}
	if _, err := tr.Step(ctx); !errors.Is(err, ErrWorkerLost) {
		t.Errorf("a Step whose fleet rebuild fails = %v, want ErrWorkerLost", err)
	}

	rig := &chaosRig{}
	cfg := trainerConfig()
	cfg.Nodes = 2
	shrink, err := planner.Train(ctx, cfg, WithWorkerPoolFactory(failAfter(1, rig.factory)))
	if err != nil {
		t.Fatal(err)
	}
	defer shrink.Close()
	if _, err := shrink.Step(ctx); err != nil {
		t.Fatal(err)
	}
	before = shrink.Stats()
	rig.transport().Fail(3, runtime.FaultKill)
	if _, err := shrink.Step(ctx); !errors.Is(err, ErrWorkerLost) || !errors.Is(err, errFleet) {
		t.Fatalf("Step losing a worker with a failing pool factory = %v, want ErrWorkerLost and the factory's error", err)
	}
	after := shrink.Stats()
	if after.WorkerFailures != 1 || after.Nodes != 2 || after.Replans != before.Replans ||
		after.Switches != before.Switches || after.PlanFingerprint != before.PlanFingerprint {
		t.Errorf("a failed shrink moved the session:\n got %+v\nwant %+v plus one worker failure", after, before)
	}
	ckpt.Reset()
	if err := shrink.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.Read(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if state.PendingSwitchCostV != 0 {
		t.Errorf("a failed shrink left %.3fs of switch cost pending", state.PendingSwitchCostV)
	}
	if _, err := shrink.Step(ctx); !errors.Is(err, ErrWorkerLost) {
		t.Errorf("a Step whose fleet rebuild fails after a failed shrink = %v, want ErrWorkerLost", err)
	}
}

// TestTrainerRecoversFromFailedRebuild: a failed fleet rebuild does not end
// the session. With a pool factory that fails only on its second call, a
// Resize to 2 nodes fails, and the next Step rebuilds a 1-node fleet for
// the incumbent and runs on it; Close after a failed rebuild is clean too.
func TestTrainerRecoversFromFailedRebuild(t *testing.T) {
	ctx := context.Background()
	calls := 0
	flaky := func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
		if calls++; calls == 2 {
			return nil, errFleet
		}
		return runtime.NewWorkerPool(numGPUs, memoryBytes), nil
	}
	tr, err := NewPlanner(ClusterConfig{}).Train(ctx, trainerConfig(), WithWorkerPoolFactory(flaky))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	first, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Resize(ctx, 2); !errors.Is(err, errFleet) {
		t.Fatalf("Resize with a failing pool factory = %v, want the factory's error", err)
	}
	rep, err := tr.Step(ctx)
	if err != nil {
		t.Fatalf("Step after a failed rebuild = %v, want it to rebuild the fleet and run", err)
	}
	if rep.Nodes != 1 || rep.PlanFingerprint != first.PlanFingerprint || rep.ReallocSwitchCost != 0 || calls != 3 {
		t.Errorf("Step after a failed rebuild ran on %d nodes (plan %s, switch %.3fs, %d factory calls), "+
			"want the 1-node incumbent %s, no switch and 3 calls",
			rep.Nodes, rep.PlanFingerprint, rep.ReallocSwitchCost, calls, first.PlanFingerprint)
	}

	// A session closed while it has no fleet closes cleanly.
	calls = 0
	idle, err := NewPlanner(ClusterConfig{}).Train(ctx, trainerConfig(), WithWorkerPoolFactory(flaky))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Resize(ctx, 2); !errors.Is(err, errFleet) {
		t.Fatalf("Resize with a failing pool factory = %v, want the factory's error", err)
	}
	if err := idle.Close(); err != nil {
		t.Errorf("Close with no fleet = %v", err)
	}
}

// TestCheckpointResumeExactReplay: Checkpoint → (simulated) kill →
// ResumeTrain on a fresh planner replays the campaign exactly — the resumed
// session's next iteration matches the uninterrupted session's byte for
// byte: same plan fingerprint, same iteration counter, same makespan and
// switch accounting. The generation-length ramp makes the comparison
// meaningful: the post-resume step triggers a replan, so every piece of
// restored state (plan, calibration, counters, drift flag) must be exact
// for the two sessions to agree.
func TestCheckpointResumeExactReplay(t *testing.T) {
	ctx := context.Background()
	schedule := WithGenLenSchedule(rampSchedule)

	orig, err := NewPlanner(ClusterConfig{}).Train(ctx, trainerConfig(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if _, err := orig.Campaign(ctx, 2); err != nil {
		t.Fatal(err)
	}

	var ckpt bytes.Buffer
	if err := orig.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Checkpoints are deterministic: a second write is byte-identical.
	var again bytes.Buffer
	if err := orig.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
		t.Fatal("two checkpoints of the same session differ")
	}

	cont, err := orig.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewPlanner(ClusterConfig{}).ResumeTrain(ctx, bytes.NewReader(ckpt.Bytes()), trainerConfig(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	rep, err := resumed.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Iter != cont.Iter {
		t.Fatalf("resumed iteration counter %d != uninterrupted %d", rep.Iter, cont.Iter)
	}
	if rep.PlanFingerprint != cont.PlanFingerprint {
		t.Fatalf("resumed plan fingerprint %s != uninterrupted %s", rep.PlanFingerprint, cont.PlanFingerprint)
	}
	if rep.MakespanV != cont.MakespanV || rep.EstMakespanV != cont.EstMakespanV {
		t.Fatalf("resumed makespan (%.6f est %.6f) != uninterrupted (%.6f est %.6f)",
			rep.MakespanV, rep.EstMakespanV, cont.MakespanV, cont.EstMakespanV)
	}
	if rep.ReallocSwitchCost != cont.ReallocSwitchCost || rep.Replanned != cont.Replanned || rep.Switched != cont.Switched {
		t.Fatalf("resumed replan accounting %+v != uninterrupted %+v", rep, cont)
	}
	a, b := resumed.Stats(), orig.Stats()
	if a.Iterations != b.Iterations || a.Replans != b.Replans || a.Switches != b.Switches ||
		a.SwitchCostV != b.SwitchCostV || a.TotalMakespanV != b.TotalMakespanV ||
		a.PlanFingerprint != b.PlanFingerprint {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", a, b)
	}
}

// TestResumeRejectsBadCheckpoints: resume failures are config errors —
// garbage bytes, bytes trailing the document, a tampered fingerprint, and
// a node count the checkpoint cannot describe all wrap ErrInvalidConfig.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := tr.Checkpoint(&good); err != nil {
		t.Fatal(err)
	}

	if _, err := planner.ResumeTrain(ctx, strings.NewReader("not json"), trainerConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("garbage checkpoint: %v, want ErrInvalidConfig", err)
	}

	// A checkpoint is exactly one document: nothing but whitespace may
	// follow it.
	for _, tail := range []string{"garbage", "]", good.String()} {
		if _, err := planner.ResumeTrain(ctx, strings.NewReader(good.String()+tail), trainerConfig()); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("checkpoint followed by %.10q: %v, want ErrInvalidConfig", tail, err)
		}
	}

	tampered := strings.Replace(good.String(), `"plan_fingerprint": "`, `"plan_fingerprint": "00`, 1)
	if _, err := planner.ResumeTrain(ctx, strings.NewReader(tampered), trainerConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("tampered fingerprint: %v, want ErrInvalidConfig", err)
	}

	// A config whose model cast disagrees with the checkpointed plan.
	other := trainerConfig()
	other.RPCs = PPORPCs("llama13b", "llama13b-critic")
	if _, err := planner.ResumeTrain(ctx, bytes.NewReader(good.Bytes()), other); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("model mismatch: %v, want ErrInvalidConfig", err)
	}
}

// TestResumeRejectsNegativeCounters: a checkpoint whose counters or totals
// were edited below zero wraps ErrInvalidConfig, one field at a time. One
// resumed at iteration -1 used to start, and its next Step handed -1 to the
// GenLen schedule, which panics when the schedule indexes a slice by
// iteration.
func TestResumeRejectsNegativeCounters(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := tr.Checkpoint(&good); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		edit  func(*checkpoint.State)
	}{
		{"iteration", func(s *checkpoint.State) { s.Iteration = -1 }},
		{"replans", func(s *checkpoint.State) { s.Replans = -1 }},
		{"switches", func(s *checkpoint.State) { s.Switches = -1 }},
		{"worker_failures", func(s *checkpoint.State) { s.WorkerFailures = -1 }},
		{"switch_cost_v", func(s *checkpoint.State) { s.SwitchCostV = -1 }},
		{"total_makespan_v", func(s *checkpoint.State) { s.TotalMakespanV = -1 }},
		{"pending_switch_cost_v", func(s *checkpoint.State) { s.PendingSwitchCostV = -1 }},
	} {
		state, err := checkpoint.Read(bytes.NewReader(good.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(state)
		var bad bytes.Buffer
		if err := checkpoint.Write(&bad, state); err != nil {
			t.Fatal(err)
		}
		resumed, err := planner.ResumeTrain(ctx, &bad, trainerConfig())
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("negative %s: ResumeTrain = %v, want ErrInvalidConfig", c.field, err)
		}
		if resumed != nil {
			resumed.Close()
		}
	}
}

// TestTrainerPanickingScheduleReleasesSession: a GenLen schedule that panics
// inside Step panics the caller, and the session stays usable: Close
// returns instead of waiting forever on the lock the step held.
func TestTrainerPanickingScheduleReleasesSession(t *testing.T) {
	ctx := context.Background()
	walk := []int{256}
	tr, err := NewPlanner(ClusterConfig{}).Train(ctx, trainerConfig(),
		WithGenLenSchedule(func(i int) int { return walk[i] }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Step past the schedule's end did not panic")
			}
		}()
		tr.Step(ctx)
	}()
	closed := make(chan error, 1)
	go func() { closed <- tr.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked 10s after a Step panicked: the step left the session locked")
	}
}

// TestResumeGenLenZeroCampaign: validate accepts GenLen 0, and a DPO
// campaign configured that way trains, steps and checkpoints, so resuming
// its own checkpoint must work too, and replay the uninterrupted session's
// next step.
func TestResumeGenLenZeroCampaign(t *testing.T) {
	ctx := context.Background()
	cfg := ExperimentConfig{
		Nodes: 1, BatchSize: 128, PromptLen: 256,
		RPCs: DPORPCs("llama7b"), SearchSteps: 300, Seed: 1,
	}
	orig, err := NewPlanner(ClusterConfig{}).Train(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if _, err := orig.Step(ctx); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := orig.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ckpt.String(), `"planned_gen_len": 0,`) {
		t.Fatalf("the campaign did not plan at GenLen 0:\n%s", ckpt.Bytes())
	}
	cont, err := orig.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewPlanner(ClusterConfig{}).ResumeTrain(ctx, &ckpt, cfg)
	if err != nil {
		t.Fatalf("resuming a GenLen-0 campaign from its own checkpoint: %v", err)
	}
	defer resumed.Close()
	rep, err := resumed.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iter != cont.Iter || rep.PlanFingerprint != cont.PlanFingerprint || rep.MakespanV != cont.MakespanV {
		t.Fatalf("resumed step %d (%s, %.6f) != uninterrupted step %d (%s, %.6f)",
			rep.Iter, rep.PlanFingerprint, rep.MakespanV, cont.Iter, cont.PlanFingerprint, cont.MakespanV)
	}
}

// TestWorkerTimeoutOptionValidation: a negative liveness bound is a run
// option rejection (and therefore a config error).
func TestWorkerTimeoutOptionValidation(t *testing.T) {
	opts := DefaultRunOptions()
	opts.WorkerTimeout = -time.Second
	_, err := NewPlanner(ClusterConfig{}).Train(context.Background(), trainerConfig(), WithTrainRunOptions(opts))
	if !errors.Is(err, ErrInvalidRunOptions) || !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Train with negative WorkerTimeout = %v, want ErrInvalidRunOptions", err)
	}
}
