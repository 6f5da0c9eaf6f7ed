package runtime

import (
	"errors"
	"testing"
	"time"

	"realhf/internal/estimator"
)

// faultyPool builds a worker pool whose chan transport is wrapped in a
// FaultyTransport — the in-process chaos rig the resilience tests use.
func faultyPool(numGPUs int, mem int64) (*WorkerPool, *FaultyTransport, []*ModelWorker) {
	workers := make([]*ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = NewModelWorker(i, mem)
	}
	ft := NewFaultyTransport(NewChanTransport(workers))
	return NewWorkerPoolWith(workers, ft), ft, workers
}

// TestFaultKillFailsReset: a killed worker fails the fence protocol with a
// typed *ErrWorkerLost naming the device, via the send-error path (no
// timeout needed — a dead transport lane answers immediately).
func TestFaultKillFailsReset(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	ft.Fail(3, FaultKill)
	err := wp.Reset(estimator.StaticPerGPU(plan))
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Reset with a killed worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 3 {
		t.Fatalf("lost gpu %d, want 3", lost.GPU)
	}
}

// TestFenceTimeoutOnDroppedStream: a wedged worker (requests silently
// swallowed, no error) is only detectable by the fence timeout, which must
// blame exactly the wedged device.
func TestFenceTimeoutOnDroppedStream(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	wp.SetFenceTimeout(100 * time.Millisecond)
	ft.Fail(5, FaultDrop)
	err := wp.Reset(estimator.StaticPerGPU(plan))
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Reset with a wedged worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 5 {
		t.Fatalf("lost gpu %d, want 5", lost.GPU)
	}
}

// TestFaultDelayHealRecovers: a stalled reply path times the fence out,
// but after Heal releases the backlog the pool quiesces and executes the
// plan bit-identically to a fresh one-shot run — transient faults do not
// poison the session.
func TestFaultDelayHealRecovers(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	wp.SetFenceTimeout(100 * time.Millisecond)
	static := estimator.StaticPerGPU(plan)

	ft.Fail(2, FaultDelay)
	err = wp.Reset(static)
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) || lost.GPU != 2 {
		t.Fatalf("Reset with a delayed worker returned %v, want *ErrWorkerLost on gpu 2", err)
	}

	ft.Heal(2)
	if err := wp.Reset(static); err != nil {
		t.Fatalf("Reset after Heal: %v", err)
	}
	rep, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != oneShot.MakespanV {
		t.Fatalf("post-heal makespan %v != one-shot %v", rep.MakespanV, oneShot.MakespanV)
	}
}

// TestRunWorkerTimeoutPartialReport: losing a worker mid-run surfaces a
// typed *ErrWorkerLost through Options.WorkerTimeout instead of hanging,
// and the partial report still accounts the nodes that completed.
func TestRunWorkerTimeoutPartialReport(t *testing.T) {
	plan := reallocHeavyPlan(t, 2)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}
	// The third node request delivered to gpu 0 finds the worker dead: from
	// then on its replies vanish and fresh sends to it fail.
	ft.InjectAfter(0, 3, FaultKill)

	rep, err := wp.Run(plan, Options{
		UseCUDAGraph: true, OverlapComm: true,
		WorkerTimeout: 200 * time.Millisecond,
	})
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Run with a killed worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 0 {
		t.Fatalf("lost gpu %d, want 0", lost.GPU)
	}
	if rep == nil {
		t.Fatal("worker loss must still return the partial report")
	}
	if rep.Iterations != 2 {
		t.Fatalf("partial report Iterations = %d, want the configured 2", rep.Iterations)
	}
	if rep.CompletedIterations >= rep.Iterations {
		t.Fatalf("CompletedIterations = %d with a worker lost mid-run, want < %d",
			rep.CompletedIterations, rep.Iterations)
	}
}

// TestRunWorkerTimeoutDroppedWorker: a wedged worker mid-run — its
// requests silently swallowed from the third on, with no send error — is
// caught by the worker timeout while every other worker keeps replying, and
// the loss is blamed on exactly that device.
func TestRunWorkerTimeoutDroppedWorker(t *testing.T) {
	plan := reallocHeavyPlan(t, 2)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}
	ft.InjectAfter(5, 3, FaultDrop)

	rep, err := wp.Run(plan, Options{
		UseCUDAGraph: true, OverlapComm: true,
		WorkerTimeout: 200 * time.Millisecond,
	})
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Run with a dropped worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 5 {
		t.Fatalf("lost gpu %d, want 5", lost.GPU)
	}
	if rep == nil {
		t.Fatal("worker loss must still return the partial report")
	}
	if rep.Iterations != 2 || rep.CompletedIterations >= rep.Iterations {
		t.Fatalf("partial report has %d of %d iterations completed, want fewer than the configured 2",
			rep.CompletedIterations, rep.Iterations)
	}
}

// TestFaultFreePassThroughIsBitIdentical: with no fault armed the wrapper
// is invisible — the pooled run over a FaultyTransport reproduces the
// one-shot timeline byte for byte (determinism survives the extra hop).
func TestFaultFreePassThroughIsBitIdentical(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	wp, _, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}
	rep, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != oneShot.MakespanV || rep.PeakBytes != oneShot.PeakBytes {
		t.Fatalf("faulty-transport run (%v, %d) != one-shot (%v, %d)",
			rep.MakespanV, rep.PeakBytes, oneShot.MakespanV, oneShot.PeakBytes)
	}
}
