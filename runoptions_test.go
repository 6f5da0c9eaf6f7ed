package realhf

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
)

// fastConfig is a one-node workload small enough for validation-focused
// tests that still have to run a real (short) search.
func fastConfig() ExperimentConfig {
	return ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: 200, Seed: 3,
	}
}

// TestRunOptionsValidationShared: negative, NaN and infinite cluster
// overrides are rejected with the same wrapped ErrInvalidRunOptions by
// every entry point that accepts RunOptions — RunWith at execution time,
// Run via options bound at planning time, and WithRunOptions inside
// Planner.Plan itself.
func TestRunOptionsValidationShared(t *testing.T) {
	planner := NewPlanner(ClusterConfig{})
	exp, err := planner.Plan(context.Background(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	bad := []RunOptions{
		{BandwidthScale: -1},
		{LatencyScale: math.NaN()},
		{MemoryScale: math.Inf(1)},
		{BandwidthScale: math.Inf(-1)},
	}
	for _, opts := range bad {
		if err := opts.Validate(); !errors.Is(err, ErrInvalidRunOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalidRunOptions", opts, err)
		}
		if _, err := exp.RunWith(opts); !errors.Is(err, ErrInvalidRunOptions) {
			t.Fatalf("RunWith(%+v) = %v, want ErrInvalidRunOptions", opts, err)
		}
		// WithRunOptions rejects at planning time, before any search runs.
		if _, err := planner.Plan(context.Background(), fastConfig(), WithRunOptions(opts)); !errors.Is(err, ErrInvalidRunOptions) {
			t.Fatalf("Plan(WithRunOptions(%+v)) = %v, want ErrInvalidRunOptions", opts, err)
		}
		if _, err := planner.Heuristic(fastConfig(), WithRunOptions(opts)); !errors.Is(err, ErrInvalidRunOptions) {
			t.Fatalf("Heuristic(WithRunOptions(%+v)) = %v, want ErrInvalidRunOptions", opts, err)
		}
	}

	// Run() executes under bound options, so a bad binding that slipped past
	// planning-time checks would still be rejected at run time; a zero or
	// positive override is accepted.
	if err := (RunOptions{}).Validate(); err != nil {
		t.Fatalf("zero RunOptions must validate, got %v", err)
	}
	if err := (RunOptions{BandwidthScale: 0.5, LatencyScale: 2, MemoryScale: 1}).Validate(); err != nil {
		t.Fatalf("positive overrides must validate, got %v", err)
	}
}

// TestRunOptionsClusterOverridesApply: a what-if run under a slower fabric
// takes longer than the default run of the same plan, and a shrunken HBM
// override turns a feasible plan into a reported OOM. The unscaled plan and
// the default report stay untouched.
func TestRunOptionsClusterOverridesApply(t *testing.T) {
	planner := NewPlanner(ClusterConfig{})
	exp, err := planner.Plan(context.Background(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := exp.RunWith(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if base.OOM {
		t.Fatalf("base run OOMed: %v", base.Errors)
	}

	slow := DefaultRunOptions()
	slow.BandwidthScale, slow.LatencyScale = 0.05, 20
	slowRep, err := exp.RunWith(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRep.IterationTime <= base.IterationTime {
		t.Errorf("20x-slower fabric run (%v) should exceed default (%v)",
			slowRep.IterationTime, base.IterationTime)
	}

	tiny := DefaultRunOptions()
	tiny.MemoryScale = 0.05
	tinyRep, err := exp.RunWith(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !tinyRep.OOM {
		t.Error("a 4GB-device override should OOM the 7B cast")
	}

	// The experiment's own plan must be untouched by scaled runs.
	if exp.Plan.Cluster.GPU.MemoryBytes != exp.Cluster.GPU.MemoryBytes {
		t.Error("scaled run mutated the experiment's plan cluster")
	}
	again, err := exp.RunWith(DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if again.IterationTime != base.IterationTime {
		t.Errorf("default rerun changed after scaled runs: %v vs %v", again.IterationTime, base.IterationTime)
	}
}

// TestRunOptionsRejectScalesThatBreakTheCluster: a positive, finite scale
// passes Validate yet can leave the scaled cluster unusable — device memory
// rounded down to 0 bytes or past math.MaxInt64, a link below 1 byte/s (an
// infinite or NaN iteration time). RunWith, Train and ResumeTrain reject
// such a scale with ErrInvalidRunOptions; scales just inside the limits
// still run.
func TestRunOptionsRejectScalesThatBreakTheCluster(t *testing.T) {
	ctx := context.Background()
	planner := NewPlanner(ClusterConfig{})
	exp, err := planner.Plan(ctx, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := planner.Train(ctx, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var ckpt bytes.Buffer
	if err := tr.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []RunOptions{
		{MemoryScale: 1e-12},     // 80 GB rounds down to 0 bytes
		{MemoryScale: 1.08e8},    // past math.MaxInt64 bytes
		{BandwidthScale: 1e-310}, // +Inf iteration time
		{BandwidthScale: 1e-320}, // NaN iteration time
	} {
		if _, err := exp.RunWith(opts); !errors.Is(err, ErrInvalidRunOptions) {
			t.Errorf("RunWith(%+v) = %v, want ErrInvalidRunOptions", opts, err)
		}
		if tr, err := planner.Train(ctx, fastConfig(), WithTrainRunOptions(opts)); !errors.Is(err, ErrInvalidRunOptions) {
			if err == nil {
				tr.Close()
			}
			t.Errorf("Train(WithTrainRunOptions(%+v)) = %v, want ErrInvalidRunOptions", opts, err)
		}
		resumed, err := planner.ResumeTrain(ctx, bytes.NewReader(ckpt.Bytes()), fastConfig(), WithTrainRunOptions(opts))
		if !errors.Is(err, ErrInvalidRunOptions) {
			if err == nil {
				resumed.Close()
			}
			t.Errorf("ResumeTrain(WithTrainRunOptions(%+v)) = %v, want ErrInvalidRunOptions", opts, err)
		}
	}

	for _, opts := range []RunOptions{
		{MemoryScale: 1e8},      // 8.6e18 bytes, below math.MaxInt64
		{BandwidthScale: 1e-10}, // the slowest link keeps 5 bytes/s
		{BandwidthScale: 1e300}, // infinitely fast links price transfers at their latency
		{MemoryScale: 1 / 8e10}, // a 1-byte device: every call runs out of memory
		{LatencyScale: 1e-320},  // latencies vanish
	} {
		opts.UseCUDAGraph, opts.OverlapComm = true, true
		rep, err := exp.RunWith(opts)
		if err != nil {
			t.Fatalf("RunWith(%+v): %v", opts, err)
		}
		if !rep.OOM && (math.IsInf(rep.IterationTime, 0) || math.IsNaN(rep.IterationTime) || rep.IterationTime <= 0) {
			t.Errorf("RunWith(%+v) iteration time %v, want positive and finite", opts, rep.IterationTime)
		}
	}
}
