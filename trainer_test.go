package realhf

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// rampSchedule is the §8 drift scenario used across the trainer tests: the
// generation length halves every iteration, 1024 → 128 over 4 iterations
// (responses shortening as the policy sharpens). The long-generation plan
// the campaign starts from stays memory-feasible throughout, but is
// increasingly over-conservative at the short end — the staleness a
// replanning session recovers.
func rampSchedule(iter int) int {
	g := 1024 >> iter
	if g < 128 {
		g = 128
	}
	return g
}

func trainerConfig() ExperimentConfig {
	return ExperimentConfig{
		Nodes: 1, BatchSize: 128, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: 800, Seed: 1,
	}
}

// TestTrainerReplansUnderGenLenRamp: under a generation-length ramp the
// replanning Trainer must beat the frozen-plan baseline on total campaign
// makespan even after paying every plan-switch reallocation it charges.
func TestTrainerReplansUnderGenLenRamp(t *testing.T) {
	const iters = 4
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})

	frozenTr, err := planner.Train(ctx, trainerConfig(),
		WithGenLenSchedule(rampSchedule), WithFrozenPlan())
	if err != nil {
		t.Fatal(err)
	}
	defer frozenTr.Close()
	frozen, err := frozenTr.Campaign(ctx, iters)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []IterationReport
	var replanTr *Trainer
	replanTr, err = planner.Train(ctx, trainerConfig(),
		WithGenLenSchedule(rampSchedule),
		WithIterationProgress(func(r IterationReport) {
			streamed = append(streamed, r)
			// Progress callbacks run with the session unlocked: calling back
			// into the Trainer must not deadlock (regression guard).
			_ = replanTr.Stats()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer replanTr.Close()
	replan, err := replanTr.Campaign(ctx, iters)
	if err != nil {
		t.Fatal(err)
	}

	if frozen.Replans != 0 || frozen.SwitchCostV != 0 {
		t.Fatalf("frozen campaign replanned: %+v", frozen)
	}
	if replan.Replans == 0 || replan.Switches == 0 {
		t.Fatalf("ramp campaign did not replan/switch: replans=%d switches=%d",
			replan.Replans, replan.Switches)
	}
	if replan.SwitchCostV <= 0 {
		t.Fatal("adopted switches must charge a positive reallocation cost")
	}
	if replan.TotalMakespanV >= frozen.TotalMakespanV {
		t.Fatalf("replanning campaign (%.2fs incl. %.2fs switches) must beat frozen (%.2fs)",
			replan.TotalMakespanV, replan.SwitchCostV, frozen.TotalMakespanV)
	}

	// Reports stream in order, one per iteration, workload following the
	// schedule, and fingerprints change across an adopted switch.
	if len(streamed) != iters {
		t.Fatalf("streamed %d reports, want %d", len(streamed), iters)
	}
	fingerprints := map[string]bool{}
	for i, r := range streamed {
		if r.Iter != i {
			t.Fatalf("report %d carries Iter %d", i, r.Iter)
		}
		if r.GenLen != rampSchedule(i) {
			t.Fatalf("iter %d GenLen = %d, want %d", i, r.GenLen, rampSchedule(i))
		}
		if r.MakespanV <= 0 || len(r.CallTimes) == 0 || len(r.EstCallTimes) == 0 {
			t.Fatalf("iter %d report incomplete: %+v", i, r)
		}
		fingerprints[r.PlanFingerprint] = true
	}
	if len(fingerprints) < 2 {
		t.Fatal("an adopted switch must change the executed plan fingerprint")
	}

	// The campaign totals mirror the per-iteration accounting.
	var sum float64
	for _, r := range replan.Iterations {
		sum += r.MakespanV + r.ReallocSwitchCost
	}
	if sum != replan.TotalMakespanV {
		t.Fatalf("campaign total %.4f != per-iteration sum %.4f", replan.TotalMakespanV, sum)
	}
	st := replanTr.Stats()
	if st.Iterations != iters || st.TotalMakespanV != replan.TotalMakespanV {
		t.Fatalf("stats disagree with campaign: %+v vs %+v", st, replan)
	}
}

// TestTrainerStepsExecuteTheirEstimate: under default run options the
// runtime executes the estimator's own timeline, so every step — replans
// and plan switches included — observes exactly the makespan the session
// estimated for its executed plan, and profile feedback never drifts.
func TestTrainerStepsExecuteTheirEstimate(t *testing.T) {
	ctx := context.Background()
	tr, err := NewPlanner(ClusterConfig{}).Train(ctx, trainerConfig(), WithGenLenSchedule(rampSchedule))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Campaign(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches == 0 {
		t.Fatal("the ramp campaign never switched plans (precondition)")
	}
	for _, r := range rep.Iterations {
		if r.MakespanV != r.EstMakespanV || r.Drift != 0 {
			t.Fatalf("iter %d: makespan %v, estimated %v (drift %v)", r.Iter, r.MakespanV, r.EstMakespanV, r.Drift)
		}
	}
	if f := tr.Stats().CalibrationFactors; f != nil {
		t.Fatalf("an exact estimator must not calibrate: %v", f)
	}
}

// TestTrainerReportEstCallTimesOwned: an IterationReport's EstCallTimes is
// the caller's own map. The prediction behind it is a shared estimate, held
// by the step state and by the Planner's cost cache, so a caller editing a
// report must reach neither this session's drift detection nor a Trainer
// opened afterwards on the same Planner.
func TestTrainerReportEstCallTimesOwned(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	first, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.EstCallTimes) == 0 {
		t.Fatal("step reported no estimated call times (precondition)")
	}
	for name := range first.EstCallTimes {
		first.EstCallTimes[name] *= 2
	}
	for i := 1; i <= 2; i++ {
		rep, err := tr.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Drift != 0 || rep.Replanned {
			t.Errorf("step %d after editing step 0's report: drift %.3f, replanned %v; want 0, false",
				i, rep.Drift, rep.Replanned)
		}
	}
	if f := tr.Stats().CalibrationFactors; f != nil {
		t.Errorf("editing a report calibrated the session: %v", f)
	}

	second, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rep, err := second.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drift != 0 {
		t.Errorf("a later Trainer on the same Planner read drift %.3f, want 0", rep.Drift)
	}
}

// TestTrainerProfileFeedbackCalibration: executing under run options the
// estimator does not model (CUDA graphs disabled) produces real
// estimate-vs-observed drift at a fixed workload; the session folds it into
// calibration multipliers, replans once, and converges — later iterations
// drift within the threshold and replanning stops.
func TestTrainerProfileFeedbackCalibration(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	opts := DefaultRunOptions()
	opts.UseCUDAGraph = false

	tr, err := planner.Train(ctx, trainerConfig(),
		WithTrainRunOptions(opts), WithReplanThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	first, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replanned {
		t.Fatal("iteration 0 has no feedback yet and must not replan")
	}
	if first.Drift <= 0.05 {
		t.Fatalf("graph-less decode must drift beyond 5%%, got %.3f", first.Drift)
	}
	second, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replanned {
		t.Fatal("drift beyond the threshold must trigger a replan")
	}
	if second.Drift > first.Drift/2 {
		t.Fatalf("calibration should collapse drift: %.3f -> %.3f", first.Drift, second.Drift)
	}
	third, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if third.Replanned {
		t.Fatal("a converged session must stop replanning")
	}

	factors := tr.Stats().CalibrationFactors
	if len(factors) == 0 {
		t.Fatal("profile feedback must materialize calibration factors")
	}
	gen, ok := factors["actor/GENERATE"]
	if !ok || gen <= 1 {
		t.Fatalf("generation without CUDA graphs must calibrate slower than the model: %v", factors)
	}
}

// TestTrainerCalibrationCacheIsolation: a calibrated campaign must not
// poison the planner's default caches — an identical uncalibrated request
// before and after the campaign returns byte-identical (and cached)
// results, while the calibrated twin problems appear alongside.
func TestTrainerCalibrationCacheIsolation(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	cfg := trainerConfig()

	before, err := planner.Plan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	problemsBefore := planner.Stats().Problems

	opts := DefaultRunOptions()
	opts.UseCUDAGraph = false
	tr, err := planner.Train(ctx, cfg, WithTrainRunOptions(opts), WithReplanThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Campaign(ctx, 3); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if len(tr.Stats().CalibrationFactors) == 0 {
		t.Fatal("campaign should have calibrated (precondition)")
	}

	after, err := planner.Plan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached {
		t.Fatal("uncalibrated request must still hit the plan cache")
	}
	if after.Estimate.Cost != before.Estimate.Cost ||
		after.Plan.Fingerprint() != before.Plan.Fingerprint() {
		t.Fatalf("calibrated campaign poisoned the default caches: cost %v->%v",
			before.Estimate.Cost, after.Estimate.Cost)
	}
	if got := planner.Stats().Problems; got <= problemsBefore {
		t.Fatalf("calibrated replans must own twin problems: %d -> %d", problemsBefore, got)
	}
}

// TestTrainerResize: an elastic mid-campaign resize replans onto the new
// mesh, charges the reallocation into it, swaps the fleet, and the campaign
// continues at the new scale.
func TestTrainerResize(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	small, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if small.Nodes != 1 {
		t.Fatalf("iteration 0 Nodes = %d, want 1", small.Nodes)
	}
	if err := tr.Resize(ctx, 2); err != nil {
		t.Fatal(err)
	}
	big, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if big.Nodes != 2 {
		t.Fatalf("post-resize Nodes = %d, want 2", big.Nodes)
	}
	if big.ReallocSwitchCost <= 0 {
		t.Fatal("resizing must charge the reallocation into the new mesh")
	}
	if big.MakespanV >= small.MakespanV {
		t.Fatalf("doubling the cluster should speed the iteration: %.2fs -> %.2fs",
			small.MakespanV, big.MakespanV)
	}
	st := tr.Stats()
	if st.Nodes != 2 || st.Switches == 0 {
		t.Fatalf("stats after resize: %+v", st)
	}
	// Resizing to the current scale is a no-op.
	if err := tr.Resize(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Replans != st.Replans {
		t.Fatal("no-op resize must not replan")
	}
}

// TestTrainerLifecycle: closed sessions reject work; cancelled contexts
// surface wrapped errors with the completed prefix; bad options are
// rejected up front with the shared RunOptions checker.
func TestTrainerLifecycle(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})

	if _, err := planner.Train(ctx, trainerConfig(), WithReplanThreshold(-1)); err == nil {
		t.Fatal("negative replan threshold must be rejected")
	}
	if _, err := planner.Train(ctx, trainerConfig(),
		WithTrainRunOptions(RunOptions{BandwidthScale: -2})); !errors.Is(err, ErrInvalidRunOptions) {
		t.Fatalf("Train must share RunOptions validation, got %v", err)
	}
	if _, err := planner.Train(ctx, trainerConfig(),
		WithGenLenSchedule(func(int) int { return 0 })); err == nil {
		t.Fatal("a schedule returning 0 tokens must be rejected")
	}

	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	rep, err := tr.Campaign(cancelled, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign error = %v, want context.Canceled", err)
	}
	if len(rep.Iterations) != 0 {
		t.Fatalf("cancelled-before-start campaign reported %d iterations", len(rep.Iterations))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := tr.Step(ctx); err == nil {
		t.Fatal("Step on a closed trainer must error")
	}
	if err := tr.Resize(ctx, 2); err == nil {
		t.Fatal("Resize on a closed trainer must error")
	}
}

// TestTrainerConcurrentUse: Step/Stats from many goroutines serialize
// safely (run under -race in CI); every iteration is executed exactly once.
func TestTrainerConcurrentUse(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	tr, err := planner.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const goroutines, perG = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := tr.Step(ctx); err != nil {
					errs <- err
				}
				_ = tr.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tr.Stats().Iterations; got != goroutines*perG {
		t.Fatalf("executed %d iterations, want %d", got, goroutines*perG)
	}
}
