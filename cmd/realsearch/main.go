// Command realsearch searches for an execution plan for one RLHF experiment
// and prints it in the format of paper Tables 2–5, together with the
// estimator's prediction and the solver's efficiency counters (search-space
// size, per-chain accepted/proposed steps).
//
// It is a thin shell over the public realhf.Planner session — the same code
// path as library callers, with no command-only planning logic.
//
// Usage:
//
//	realsearch -actor 70b -critic 7b -nodes 16 -batch 4096 -steps 4000
//	realsearch -actor 7b -critic 7b -chains 8
//	realsearch -actor 7b -critic 7b -algo remax -progress -save plan.json
//	realsearch -actor 7b -critic 7b -overlap-cost
//	realsearch -actor 7b -critic 34b -nodes 1 -offload-search
//	realsearch -actor 7b -critic 7b -steps 20000 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"realhf"
	"realhf/internal/search"
)

func main() {
	os.Exit(run())
}

// run is main's body with a normal return, so the deferred profile writers
// run even when the chosen plan is infeasible and the command exits non-zero.
func run() int {
	log.SetFlags(0)
	actor := flag.String("actor", "7b", "actor model size (7b, 13b, 34b, 70b)")
	critic := flag.String("critic", "7b", "critic/reward model size")
	nodes := flag.Int("nodes", 2, "number of 8-GPU nodes")
	batch := flag.Int("batch", 0, "global batch size (default: 512 per 16 GPUs)")
	prompt := flag.Int("prompt", 1024, "prompt length in tokens")
	gen := flag.Int("gen", 1024, "generated tokens per sequence")
	algo := flag.String("algo", "ppo", "RLHF algorithm: ppo, dpo, grpo, remax")
	solver := flag.String("solver", "",
		"planning engine: "+strings.Join(search.Names(), ", ")+" (default mcmc)")
	chains := flag.Int("chains", 0, "concurrent MCMC chains (0 or 1 = one chain)")
	steps := flag.Int("steps", 4000, "MCMC search steps (per chain)")
	seed := flag.Int64("seed", 1, "search seed")
	overlapCost := flag.Bool("overlap-cost", false,
		"search under the overlapped-engine cost semantics (optimize the makespan the overlapped runtime achieves)")
	offloadSearch := flag.Bool("offload-search", false,
		"search per-call host offload of frozen models as a plan dimension")
	heuristic := flag.Bool("heuristic", false, "print the heuristic plan instead of searching")
	progress := flag.Bool("progress", false, "stream best-cost improvements while searching")
	save := flag.String("save", "", "write the resulting plan to this JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the solve to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile after the solve to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	cfg, err := realhf.PaperExperiment(*algo, "llama"+*actor, "llama"+*critic+"-critic", *nodes, *batch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.PromptLen, cfg.GenLen = *prompt, *gen
	cfg.SearchSteps, cfg.Seed = *steps, *seed
	cfg.Solver, cfg.SearchParallelism = *solver, *chains
	cfg.PlanForOverlap = *overlapCost
	cfg.OffloadSearch = *offloadSearch

	planner := realhf.NewPlanner(realhf.ClusterConfig{})

	if *heuristic {
		exp, err := planner.Heuristic(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Heuristic plan for %s actor + %s critic on %d GPUs (%s):\n\n",
			*actor, *critic, exp.Cluster.NumGPUs(), *algo)
		fmt.Print(exp.PlanTable())
		printEstimate(exp)
		return 0
	}

	// Ctrl-C cancels the search mid-flight through the Planner's context
	// plumbing instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var opts []realhf.AutoOption
	if *progress {
		opts = append(opts, realhf.WithProgress(func(pt search.ProgressPoint) {
			fmt.Printf("  step %6d  best %.2fs  (t=%s)\n",
				pt.Step, pt.BestCost, pt.Elapsed.Round(1e6))
		}))
	}
	exp, err := planner.Plan(ctx, cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		if err := exp.SavePlan(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan written to %s (re-run it with realrun -plan %s)\n", *save, *save)
	}
	fmt.Printf("Searched plan for %s actor + %s critic on %d GPUs (%s, solver=%s, %d steps):\n\n",
		*actor, *critic, exp.Cluster.NumGPUs(), *algo, exp.Config.Solver, exp.SearchStats.Steps)
	fmt.Print(exp.PlanTable())
	printEstimate(exp)
	st := exp.SearchStats
	fmt.Printf("Search space: ~1e%.0f plans, accepted %d/%d moves (%d rejected on the bound)\n",
		st.SpaceLog10, st.Accepted, st.Steps, st.BoundRejected)
	if len(st.Chains) > 1 {
		fmt.Printf("\n%-6s %-22s %10s %10s %12s\n", "Chain", "Seed", "Proposed", "Accepted", "BestCost")
		for _, c := range st.Chains {
			fmt.Printf("%-6d %-22d %10d %10d %11.1fs\n",
				c.Chain, c.Seed, c.Proposed, c.Accepted, c.BestCost)
		}
	}
	if exp.Estimate.OOM {
		return 1
	}
	return 0
}

func printEstimate(exp *realhf.Experiment) {
	sem := "serialized"
	if exp.Config.PlanForOverlap {
		sem = "overlapped"
	}
	fmt.Printf("\nEstimated iteration time (%s schedule): %.1fs   MaxMem: %.1f GB   OOM: %v\n",
		sem, exp.Estimate.TimeCost, float64(exp.Estimate.MaxMem)/(1<<30), exp.Estimate.OOM)
}
