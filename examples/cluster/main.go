// Distributed runtime: the paper's §6 deployment shape — a master worker
// driving per-GPU model workers over sockets. This example plans the
// symmetric heuristic through the public Planner session, reshards
// generation so the run includes a parameter reallocation, serves 16 model
// workers over real TCP connections with gob-encoded requests, executes the
// plan on a worker pool over the socket transport, and verifies the result
// matches the in-process transport exactly. (The TCP transport, worker pool
// and worker types are deployment machinery below the public planning API.)
// It then plans the same workload twice more through the session — under
// serialized and overlap-aware search costs — and compares both searched
// plans on the overlapped runtime the cluster actually executes.
package main

import (
	"context"
	"fmt"
	"log"

	"realhf"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/runtime"
)

func main() {
	log.SetFlags(0)

	planner := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 2})
	cfg := realhf.ExperimentConfig{
		BatchSize: 512, PromptLen: 1024, GenLen: 1024, MiniBatches: 8,
		RPCs: realhf.PPORPCs("llama7b", "llama7b-critic"),
	}
	exp, err := planner.Heuristic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	plan := exp.Plan
	tweakGenerationStrategy(plan)

	// Start one model worker per GPU behind a TCP listener.
	workers := make([]*runtime.ModelWorker, exp.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, exp.Cluster.GPU.MemoryBytes)
	}
	addr, stop, err := runtime.ServeWorkersTCP(workers)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fmt.Printf("model workers serving on %s (%d GPUs)\n", addr, len(workers))

	// The master dials every worker, fences the fleet to the plan's static
	// footprint and drives the plan over the sockets.
	tr, err := runtime.NewTCPTransport(addr, len(workers))
	if err != nil {
		log.Fatal(err)
	}
	pool := runtime.NewWorkerPoolWith(workers, tr)
	defer pool.Close()
	if err := pool.Reset(estimator.StaticPerGPU(plan)); err != nil {
		log.Fatal(err)
	}
	rep, err := pool.Run(plan, runtime.Options{UseCUDAGraph: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration over TCP:     %.2fs (comm %.2fs, peak %.1f GB)\n",
		rep.MakespanV, rep.CommTimeV, float64(rep.PeakBytes)/(1<<30))

	// Cross-check: the transport is a carrier, not a model — the in-process
	// run must produce identical virtual timing.
	local, err := runtime.Run(plan, runtime.Options{UseCUDAGraph: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration in-process:   %.2fs\n", local.MakespanV)
	if diff := rep.MakespanV - local.MakespanV; diff == 0 {
		fmt.Println("transports agree exactly.")
	} else {
		fmt.Printf("transports disagree by %.6fs\n", diff)
	}

	// Overlap-aware search through the same session: the cluster executes
	// overlapped (realhf.DefaultRunOptions), so let the search optimize that
	// schedule instead of the serialized one, and compare both searched
	// plans on the engine that actually runs.
	searchCfg := cfg
	searchCfg.SearchSteps = 800
	serialExp, err := planner.Plan(context.Background(), searchCfg)
	if err != nil {
		log.Fatal(err)
	}
	overlapCfg := searchCfg
	overlapCfg.PlanForOverlap = true
	overlapExp, err := planner.Plan(context.Background(), overlapCfg, realhf.WithWarmStart(serialExp.Plan))
	if err != nil {
		log.Fatal(err)
	}
	serialRun, err := runtime.Run(serialExp.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		log.Fatal(err)
	}
	overlapRun, err := runtime.Run(overlapExp.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noverlapped-runtime makespan, serialized-cost search:   %.2fs\n", serialRun.MakespanV)
	fmt.Printf("overlapped-runtime makespan, overlap-aware search:     %.2fs\n", overlapRun.MakespanV)
	// The warm start guarantees the overlap-aware plan wins in estimator
	// space, and the runtime executes the estimator's timeline, so the
	// overlapped runtime can never be slower.
	if overlapRun.MakespanV > serialRun.MakespanV {
		log.Fatalf("overlap-aware search regressed the overlapped makespan (%.2fs > %.2fs)",
			overlapRun.MakespanV, serialRun.MakespanV)
	}
}

// tweakGenerationStrategy reshards generation to TP=2 so the run includes a
// parameter reallocation over the sockets.
func tweakGenerationStrategy(plan *core.Plan) {
	const gen = "actor/GENERATE"
	a := plan.Assign[gen]
	a.Strategy.TP, a.Strategy.DP, a.Strategy.PP = 2, a.Mesh.NumGPUs()/2, 1
	a.Strategy.MicroBatches = 1
	plan.Assign[gen] = a
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}
}
