// Quickstart: open a realhf.Planner session, let ReaL search for an
// execution plan for a PPO experiment (the paper's Fig. 18-style API), run
// one RLHF iteration on the simulated cluster, and show the session's
// plan-once-run-many behavior: an equivalent second request is answered
// from the plan cache without re-running MCMC.
package main

import (
	"context"
	"fmt"
	"log"

	"realhf"
)

func main() {
	log.SetFlags(0)

	// The session owns per-problem estimators, memoized cost caches and the
	// plan cache; requests inherit its Nodes default.
	planner := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 2})

	// A 7B actor with a 7B-scale critic on two 8-GPU nodes — the paper's
	// small representative case (Tables 4/5).
	cfg := realhf.ExperimentConfig{
		BatchSize:   512,
		PromptLen:   1024,
		GenLen:      1024,
		MiniBatches: 8,
		RPCs:        realhf.PPORPCs("llama7b", "llama7b-critic"),
		SearchSteps: 3000,
		Seed:        1,
	}
	exp, err := planner.Plan(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Searched execution plan:")
	fmt.Println(exp.PlanTable())

	report, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Iteration time:  %.1fs\n", report.IterationTime)
	fmt.Printf("Throughput:      %.2f PFLOP/s\n", report.ThroughputPFLOPs)
	fmt.Printf("Realloc/transfer %.2fs\n", report.CommTime)

	// Compare against the pre-training-inspired symmetric plan.
	heur, err := planner.Heuristic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	heurReport, err := heur.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHeuristic iteration time: %.1fs  (ReaL speedup: %.2fx)\n",
		heurReport.IterationTime, heurReport.IterationTime/report.IterationTime)

	// Re-planning an equivalent config skips the search entirely.
	again, err := planner.Plan(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := planner.Stats()
	fmt.Printf("\nSecond request: cached=%v identical-plan=%v (session: %d requests, %d cache hits)\n",
		again.Cached, again.Plan.Fingerprint() == exp.Plan.Fingerprint(),
		st.PlanRequests, st.PlanCacheHits)
}
