// Command realrun executes an RLHF execution plan on the simulated cluster
// through the runtime engine (master worker + per-GPU model workers) and
// prints a Table 6-style wall-time breakdown.
//
// Planning goes through the public realhf.Planner session (searched plans,
// the symmetric heuristic, and plans saved by realsearch -save); only the
// split-placement baseline systems of Fig. 7 still reach into the internal
// baselines package, since they are not part of the public API.
//
// With -iters > 1 realrun drives a multi-iteration training campaign
// through a long-lived realhf.Trainer session instead of a one-shot run:
// persistent model workers, per-iteration reports, profile-feedback
// replanning under a -genlen-ramp, and an elastic -resize-at mid-campaign
// cluster change. -kill-worker-at injects a worker death (the Trainer
// shrink-replans onto the survivors), and -checkpoint makes the campaign
// durable: the session checkpoints after every iteration, and rerunning
// the same command resumes from the file instead of starting over — kill
// the process mid-campaign and run it again to watch it pick up exactly
// where it died.
//
// Usage:
//
//	realrun -actor 70b -critic 7b -nodes 16 -system real
//	realrun -actor 7b -critic 7b -nodes 2 -system openrlhf -cudagraph=false
//	realrun -actor 7b -critic 7b -plan plan.json
//	realrun -actor 7b -critic 7b -nodes 1 -iters 4 -genlen-ramp 1024:128
//	realrun -actor 7b -critic 7b -nodes 1 -iters 6 -resize-at 3:2
//	realrun -actor 7b -critic 7b -nodes 2 -iters 4 -kill-worker-at 2:5
//	realrun -actor 7b -critic 7b -nodes 1 -iters 8 -checkpoint run.ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"realhf"
	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/runtime"
	"realhf/internal/trace"
)

func main() {
	log.SetFlags(0)
	actor := flag.String("actor", "7b", "actor model size (7b, 13b, 34b, 70b)")
	critic := flag.String("critic", "7b", "critic/reward model size")
	nodes := flag.Int("nodes", 2, "number of 8-GPU nodes")
	batch := flag.Int("batch", 0, "global batch size (default: 512 per 16 GPUs)")
	algo := flag.String("algo", "ppo", "RLHF algorithm: ppo, dpo, grpo, remax")
	system := flag.String("system", "real",
		"plan source: real, real-heuristic, dschat, openrlhf, nemo-aligner, verl")
	steps := flag.Int("steps", 4000, "MCMC search steps (system=real)")
	seed := flag.Int64("seed", 1, "search seed")
	cudaGraph := flag.Bool("cudagraph", true, "capture decode kernels into CUDA graphs")
	overlap := flag.Bool("overlap", true,
		"overlap parameter reallocation/data transfer with computation on per-worker comm streams")
	tcp := flag.Bool("tcp", false, "drive model workers over TCP sockets instead of channels")
	planFile := flag.String("plan", "", "load a plan saved by realsearch -save instead of planning")
	chromeTrace := flag.String("chrometrace", "", "write the execution timeline as a Chrome trace JSON")
	iters := flag.Int("iters", 1,
		"iterations to train; > 1 runs a Trainer campaign with profile-feedback replanning (system=real)")
	genLenRamp := flag.String("genlen-ramp", "",
		"linear generation-length ramp start:end across the campaign (e.g. 1024:128; campaign mode)")
	resizeAt := flag.String("resize-at", "",
		"elastic resize iter:nodes — before iteration iter, replan onto nodes hosts (campaign mode)")
	frozen := flag.Bool("frozen", false, "pin the iteration-0 plan for the whole campaign (the no-replanning baseline)")
	checkpointFile := flag.String("checkpoint", "",
		"checkpoint the campaign to this file after every iteration, and resume from it when it exists (campaign mode)")
	killAt := flag.String("kill-worker-at", "",
		"fault injection iter:gpu — before iteration iter, kill worker gpu and shrink-replan onto the survivors (campaign mode)")
	flag.Parse()

	cfg, err := realhf.PaperExperiment(*algo, "llama"+*actor, "llama"+*critic+"-critic", *nodes, *batch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.SearchSteps, cfg.Seed = *steps, *seed

	if *iters > 1 {
		if *system != "real" || *planFile != "" {
			log.Fatal("realrun: campaign mode (-iters > 1) requires -system real without -plan")
		}
		// Reject rather than silently ignore options the Trainer session
		// does not plumb through: its pool is in-process, and per-iteration
		// timelines are not exported as one trace.
		if *tcp || *chromeTrace != "" {
			log.Fatal("realrun: campaign mode does not support -tcp or -chrometrace")
		}
		runCampaign(cfg, *iters, *genLenRamp, *resizeAt, *checkpointFile, *killAt, *frozen, realhf.RunOptions{
			UseCUDAGraph: *cudaGraph, OverlapComm: *overlap,
		})
		return
	}
	if *checkpointFile != "" || *killAt != "" {
		log.Fatal("realrun: -checkpoint and -kill-worker-at require campaign mode (-iters > 1)")
	}

	planner := realhf.NewPlanner(realhf.ClusterConfig{})
	var plan *core.Plan
	var cluster hardware.Cluster
	switch {
	case *planFile != "":
		exp, err := planner.LoadExperiment(*planFile, cfg)
		if err != nil {
			log.Fatal(err)
		}
		plan, cluster = exp.Plan, exp.Cluster
	case *system == "real":
		exp, err := planner.Plan(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		plan, cluster = exp.Plan, exp.Cluster
	case *system == "real-heuristic":
		exp, err := planner.Heuristic(cfg)
		if err != nil {
			log.Fatal(err)
		}
		plan, cluster = exp.Plan, exp.Cluster
	default:
		// The split-placement baseline systems live below the public API;
		// they place the public config's problem: the cluster, graph and
		// model cast of its heuristic plan.
		exp, err := planner.Heuristic(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cluster = exp.Cluster
		est := estimator.NewOracle(cluster, exp.Plan.Models, true)
		plan, _, err = baselines.Evaluate(baselines.System(*system), est, cluster, exp.Plan.Graph, exp.Plan.Models)
		if err != nil {
			log.Fatal(err)
		}
	}

	opts := runtime.Options{UseCUDAGraph: *cudaGraph, OverlapComm: *overlap}
	var rep *runtime.Report
	if *tcp {
		rep, err = runTCP(plan, cluster, opts)
	} else {
		rep, err = runtime.Run(plan, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *chromeTrace != "" {
		if err := trace.ExportChromeTrace(rep, *chromeTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (open in chrome://tracing)\n", *chromeTrace)
	}

	fmt.Printf("Plan (%s) for %s+%s on %d GPUs:\n\n", *system, *actor, *critic, cluster.NumGPUs())
	fmt.Print(plan.Table(rep.CallTimes))
	fmt.Println()

	names := make([]string, 0, len(rep.CallTimes))
	for name := range rep.CallTimes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("Wall-time breakdown:")
	for _, name := range names {
		fmt.Printf("  %-14s %8.1fs\n", name, rep.CallTimes[name])
	}
	fmt.Printf("  %-14s %8.1fs\n", "comm (realloc)", rep.CommTimeV)
	fmt.Printf("  %-14s %8.1fs\n", "end-to-end", rep.MakespanV)
	fmt.Printf("\nThroughput: %.2f PFLOP/s   Peak memory: %.1f GB   OOM: %v   OverlapComm: %v\n",
		estimator.Throughput(plan, rep.MakespanV), float64(rep.PeakBytes)/(1<<30), rep.OOM, rep.OverlapComm)
	for _, e := range rep.Errors {
		fmt.Println("  worker error:", e)
	}

	// ±overlap comparison (Table-6-style ablation row): re-execute the same
	// plan with the opposite overlap setting over fresh in-process workers.
	// OOM runs carry truncated timings, so no ablation is printed for them.
	if !*tcp && !rep.OOM && rep.CommTimeV > 0 {
		other, err := runtime.Run(plan, runtime.Options{UseCUDAGraph: *cudaGraph, OverlapComm: !*overlap})
		if err != nil {
			log.Fatal(err)
		}
		serial, overlapped := rep.MakespanV, other.MakespanV
		if *overlap {
			serial, overlapped = other.MakespanV, rep.MakespanV
		}
		hidden := serial - overlapped
		fmt.Printf("Overlap ablation: serialized %.1fs -> overlapped %.1fs (comm %.1fs, %.0f%% hidden)\n",
			serial, overlapped, rep.CommTimeV, 100*hidden/rep.CommTimeV)
	}
}

// runTCP executes plan once on a fleet of model workers served over TCP
// sockets: a worker pool over the socket transport, reset to the plan's
// static footprint.
func runTCP(plan *core.Plan, cluster hardware.Cluster, opts runtime.Options) (*runtime.Report, error) {
	workers := make([]*runtime.ModelWorker, cluster.NumGPUs())
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, cluster.GPU.MemoryBytes)
	}
	addr, stop, err := runtime.ServeWorkersTCP(workers)
	if err != nil {
		return nil, err
	}
	defer stop()
	tr, err := runtime.NewTCPTransport(addr, len(workers))
	if err != nil {
		return nil, err
	}
	pool := runtime.NewWorkerPoolWith(workers, tr)
	defer pool.Close()
	fmt.Printf("workers serving on %s\n", addr)
	if err := pool.Reset(estimator.StaticPerGPU(plan)); err != nil {
		return nil, err
	}
	return pool.Run(plan, opts)
}

// faultRig builds the -kill-worker-at worker fleets: in-process channel
// workers with a runtime.FaultyTransport wrapped around the transport, the
// latest fleet's wrapper kept so the progress callback can kill a device on
// whatever fleet the session currently runs.
type faultRig struct {
	mu sync.Mutex
	ft *runtime.FaultyTransport
}

func (r *faultRig) factory(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
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

func (r *faultRig) transport() *runtime.FaultyTransport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ft
}

// parsePair parses "a:b" into two ints.
func parsePair(s, what string) (int, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("realrun: %s must look like a:b, got %q", what, s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("realrun: bad %s %q: %v", what, s, err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("realrun: bad %s %q: %v", what, s, err)
	}
	return a, b, nil
}

// runCampaign drives a multi-iteration Trainer session: per-iteration
// reports stream as they complete, an optional linear GenLen ramp exercises
// the §8 drift scenario, an optional -resize-at splits the campaign around
// an elastic cluster change, -kill-worker-at injects a worker death the
// session survives by shrink-replanning, and -checkpoint makes the whole
// campaign durable (checkpoint after every iteration, resume from the file
// when it exists).
func runCampaign(cfg realhf.ExperimentConfig, iters int, ramp, resize, checkpointFile, killAt string, frozen bool, runOpts realhf.RunOptions) {
	ctx := context.Background()
	// tr is assigned below; the progress callback captures it so the
	// per-iteration checkpoint and the fault injection can reach the
	// session (callbacks run with the session unlocked).
	var tr *realhf.Trainer
	killIter, killGPU := -1, -1
	var rig *faultRig
	if killAt != "" {
		var err error
		killIter, killGPU, err = parsePair(killAt, "-kill-worker-at")
		if err != nil {
			log.Fatal(err)
		}
		if killIter <= 0 || killIter >= iters {
			log.Fatalf("realrun: -kill-worker-at iteration %d outside campaign (1..%d)", killIter, iters-1)
		}
		if killGPU < 0 {
			log.Fatalf("realrun: -kill-worker-at gpu %d must be >= 0", killGPU)
		}
		rig = &faultRig{}
	}
	opts := []realhf.TrainOption{
		realhf.WithTrainRunOptions(runOpts),
		realhf.WithIterationProgress(func(r realhf.IterationReport) {
			mark := " "
			switch {
			case r.WorkerLost:
				mark = "X" // lost a worker, shrink-replanned onto the survivors
			case r.Switched:
				mark = "S" // replanned and switched plans
			case r.Replanned:
				mark = "r" // replanned, kept the incumbent
			}
			fmt.Printf("iter %2d %s gen=%-5d nodes=%d  %8.2fs (est %8.2fs, drift %4.1f%%)  switch %6.3fs  plan %.12s\n",
				r.Iter, mark, r.GenLen, r.Nodes, r.MakespanV, r.EstMakespanV, 100*r.Drift,
				r.ReallocSwitchCost, r.PlanFingerprint)
			if r.WorkerLost {
				fmt.Printf("-- worker gpu %v lost; campaign shrunk to %d nodes --\n", r.LostGPUs, r.Nodes)
			}
			if rig != nil && r.Iter == killIter-1 {
				fmt.Printf("-- killing worker gpu %d --\n", killGPU)
				rig.transport().Fail(killGPU, runtime.FaultKill)
			}
			if checkpointFile != "" {
				if err := tr.CheckpointFile(checkpointFile); err != nil {
					log.Fatal(err)
				}
			}
		}),
	}
	if rig != nil {
		opts = append(opts, realhf.WithWorkerPoolFactory(rig.factory))
	}
	if frozen {
		opts = append(opts, realhf.WithFrozenPlan())
	}
	if ramp != "" {
		start, end, err := parsePair(ramp, "-genlen-ramp")
		if err != nil {
			log.Fatal(err)
		}
		if start <= 0 || end <= 0 {
			log.Fatal("realrun: -genlen-ramp lengths must be positive")
		}
		opts = append(opts, realhf.WithGenLenSchedule(func(iter int) int {
			if iters <= 1 {
				return start
			}
			return start + (end-start)*iter/(iters-1)
		}))
	}
	resizeIter, resizeNodes := -1, 0
	if resize != "" {
		var err error
		resizeIter, resizeNodes, err = parsePair(resize, "-resize-at")
		if err != nil {
			log.Fatal(err)
		}
		if resizeIter <= 0 || resizeIter >= iters {
			log.Fatalf("realrun: -resize-at iteration %d outside campaign (1..%d)", resizeIter, iters-1)
		}
	}

	planner := realhf.NewPlanner(realhf.ClusterConfig{})
	var err error
	if checkpointFile != "" {
		if _, statErr := os.Stat(checkpointFile); statErr == nil {
			tr, err = planner.ResumeTrainFile(ctx, checkpointFile, cfg, opts...)
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	resumedAt := 0
	if tr == nil {
		tr, err = planner.Train(ctx, cfg, opts...)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		resumedAt = tr.Stats().Iterations
	}
	defer tr.Close()

	mode := "replanning"
	if frozen {
		mode = "frozen-plan"
	}
	if resumedAt > 0 {
		fmt.Printf("Training campaign (%s): resumed from %s at iteration %d of %d, on %d nodes\n\n",
			mode, checkpointFile, resumedAt, iters, tr.Stats().Nodes)
	} else {
		fmt.Printf("Training campaign (%s): %d iterations on %d nodes\n\n", mode, iters, cfg.Nodes)
	}
	if resumedAt >= iters {
		fmt.Println("campaign already complete; delete the checkpoint to start over")
		return
	}

	// Only the makespan/iteration totals come from the chunked campaign
	// reports; replan/switch/realloc counters are read from Stats at the
	// end, which also covers the Resize between chunks.
	var totalV float64
	ranIters := 0
	accumulate := func(rep *realhf.CampaignReport) {
		ranIters += rep.CompletedIterations
		totalV += rep.TotalMakespanV
	}
	if resizeIter > resumedAt {
		rep, err := tr.Campaign(ctx, resizeIter-resumedAt)
		if err != nil {
			log.Fatal(err)
		}
		accumulate(rep)
		fmt.Printf("-- resizing campaign to %d nodes --\n", resizeNodes)
		if err := tr.Resize(ctx, resizeNodes); err != nil {
			log.Fatal(err)
		}
		rep, err = tr.Campaign(ctx, iters-resizeIter)
		if err != nil {
			log.Fatal(err)
		}
		accumulate(rep)
	} else {
		rep, err := tr.Campaign(ctx, iters-resumedAt)
		if err != nil {
			log.Fatal(err)
		}
		accumulate(rep)
	}

	st := tr.Stats()
	fmt.Printf("\nCampaign total: %.2fs over %d iterations (replans %d, switches %d, realloc charged %.3fs, workers lost %d)\n",
		totalV, ranIters, st.Replans, st.Switches, st.SwitchCostV, st.WorkerFailures)
	if factors := st.CalibrationFactors; len(factors) > 0 {
		names := make([]string, 0, len(factors))
		for name := range factors {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("Calibration (observed/predicted):")
		for _, name := range names {
			fmt.Printf("  %-16s %.3f\n", name, factors[name])
		}
	}
}
