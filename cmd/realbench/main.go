// Command realbench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment prints the same rows/series the paper
// reports, for side-by-side comparison with the published numbers.
//
// Usage:
//
//	realbench -exp all          # everything at paper scale (minutes)
//	realbench -exp fig7 -quick  # one experiment, reduced scale
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"realhf"
	"realhf/internal/experiments"
	"realhf/internal/model"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all",
		"experiment: table1, plans (tables 2-6), fig2, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, ablation, overlap, overlap-search, offload, limitation, drift, all")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	steps := flag.Int("steps", 0, "override MCMC search steps")
	flag.Parse()

	searchSteps := 6000
	nodes := 16
	if *quick {
		searchSteps = 1500
		nodes = 2
	}
	if *steps > 0 {
		searchSteps = *steps
	}

	run := func(name string, f func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
	}

	run("table1", func() (string, error) { return experiments.Table1(), nil })

	run("plans", func() (string, error) {
		out, _, err := experiments.Tables2to6(searchSteps, *quick)
		return out, err
	})

	run("fig2", func() (string, error) {
		s := experiments.PaperSetting(nodes, bigActor(*quick), model.LLaMA7B)
		return experiments.Fig2(s, searchSteps, 2)
	})

	run("fig7", func() (string, error) {
		var b strings.Builder
		counts7 := []int{16, 32, 64, 128}
		counts13 := []int{32, 64, 128}
		if *quick {
			counts7, counts13 = []int{16, 32}, []int{32}
		}
		_, out, err := experiments.Fig7(model.LLaMA7B, counts7, searchSteps)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		_, out, err = experiments.Fig7(model.LLaMA13B, counts13, searchSteps)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		return b.String(), nil
	})

	run("fig8", func() (string, error) {
		combos := experiments.Fig8Combos()
		if *quick {
			combos = combos[:2]
		}
		_, out, err := experiments.Fig8(combos, nodes, []int{2048, 8192}, searchSteps)
		return out, err
	})

	run("fig9", func() (string, error) {
		var b strings.Builder
		small := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
		_, out, err := experiments.Fig9(small, searchSteps, 1)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		big := experiments.PaperSetting(nodes, bigActor(*quick), model.LLaMA7B)
		_, out, err = experiments.Fig9(big, searchSteps, 2)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		return b.String(), nil
	})

	run("fig10", func() (string, error) { return experiments.Fig10(16), nil })

	run("fig11", func() (string, error) {
		combos := experiments.Fig8Combos()
		if *quick {
			combos = combos[:2]
		}
		_, out, err := experiments.Fig11(combos, nodes, searchSteps)
		return out, err
	})

	run("fig12", func() (string, error) {
		scales := []int{2, 4, 8, 16}
		if *quick {
			scales = []int{2, 4}
		}
		_, out, err := experiments.Fig12(scales, searchSteps)
		return out, err
	})

	run("fig13", func() (string, error) {
		_, out, err := experiments.Fig13(searchSteps, []int{2048, 8192})
		return out, err
	})

	run("fig14", func() (string, error) {
		caps := []int{215, 464, 1000}
		steps := searchSteps
		if *quick {
			caps = []int{100, 300}
			steps = 600
		}
		_, out, err := experiments.Fig14(steps, caps)
		return out, err
	})

	run("fig15", func() (string, error) {
		topK := 6
		if *quick {
			topK = 4
		}
		_, out, err := experiments.Fig15(searchSteps, topK)
		return out, err
	})

	run("fig16", func() (string, error) {
		return fig16(nodes, searchSteps, bigActor(*quick), model.LLaMA7B)
	})

	run("fig17", func() (string, error) {
		actors := []model.Config{model.LLaMA7B, model.LLaMA13B, model.LLaMA34B}
		counts := []int{1, 2, 4, 8, 12, 16}
		if *quick {
			actors = actors[:1]
			counts = []int{1, 2, 4}
		}
		_, out, err := experiments.Fig17(actors, counts, searchSteps)
		return out, err
	})

	run("ablation", func() (string, error) {
		var b strings.Builder
		ablNodes := 4
		if *quick {
			ablNodes = 2
		}
		_, out, err := experiments.AblationNoRealloc(ablNodes, searchSteps)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteString("\n")
		s := experiments.PaperSetting(2, model.LLaMA7B, model.LLaMA13B)
		_, _, out, err = experiments.AblationCrossIter(s, searchSteps)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		return b.String(), nil
	})

	run("overlap", func() (string, error) {
		ovNodes := 4
		if *quick {
			ovNodes = 2
		}
		_, out, err := experiments.AblationOverlap(ovNodes, searchSteps)
		return out, err
	})

	run("overlap-search", func() (string, error) {
		ovNodes := 4
		if *quick {
			ovNodes = 2
		}
		_, out, err := experiments.AblationOverlapSearch(ovNodes, searchSteps)
		return out, err
	})

	run("offload", func() (string, error) {
		offSteps := searchSteps
		if offSteps > 1500 {
			// The 4-GPU problem is small; the solve converges well within
			// the quick budget.
			offSteps = 1500
		}
		_, out, err := experiments.AblationOffload(offSteps)
		return out, err
	})

	run("limitation", func() (string, error) {
		_, out, err := experiments.LimitationStudy(2, searchSteps, []float64{0, 0.25, 0.5, 0.75}, 9)
		return out, err
	})

	run("drift", func() (string, error) {
		driftNodes := 2
		if *quick {
			driftNodes = 1
		}
		return drift(driftNodes, searchSteps, 4)
	})
}

func bigActor(quick bool) model.Config {
	if quick {
		return model.LLaMA13B
	}
	return model.LLaMA70B
}

// fig16 regenerates the beyond-PPO comparison (paper Fig. 16) through the
// public realhf.Planner session and the public DPO/GRPO/ReMax presets — the
// same path library users take — instead of the internal experiments
// plumbing. One session plans all three algorithms, and the trailing stats
// line shows the session-level cache reuse.
func fig16(nodes, steps int, actor, small model.Config) (string, error) {
	planner := realhf.NewPlanner(realhf.ClusterConfig{Nodes: nodes})
	var b strings.Builder
	b.WriteString("Figure 16: RLHF algorithms beyond PPO\n")
	b.WriteString("=====================================\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %12s\n", "Algo", "Heuristic PF/s", "ReaL PF/s", "Improvement")
	for i, algo := range []string{"dpo", "grpo", "remax"} {
		cfg, err := realhf.PaperExperiment(algo, "llama"+actor.Name, "llama"+small.Name+"-critic", nodes, 0)
		if err != nil {
			return "", err
		}
		cfg.SearchSteps, cfg.Seed = steps, int64(1000+i)
		exp, err := planner.Plan(context.Background(), cfg)
		if err != nil {
			return "", err
		}
		rep, err := exp.Run()
		if err != nil {
			return "", err
		}
		heur, err := planner.Heuristic(cfg)
		if err != nil {
			return "", err
		}
		hrep, err := heur.Run()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %14.2f %14.2f %+11.1f%%\n",
			strings.ToUpper(algo), hrep.ThroughputPFLOPs, rep.ThroughputPFLOPs,
			100*(rep.ThroughputPFLOPs-hrep.ThroughputPFLOPs)/hrep.ThroughputPFLOPs)
	}
	st := planner.Stats()
	fmt.Fprintf(&b, "\nPlanner session: %d solves over %d problems, cost cache %d hits / %d misses\n",
		st.PlanCacheMisses, st.Problems, st.CostCacheHits, st.CostCacheMisses)
	return b.String(), nil
}

// driftGenLen is the §8 ramp the drift ablation executes: generation length
// halving from 1024 to 128 over the campaign (responses shortening as the
// policy sharpens). The iteration-0 plan stays memory-feasible throughout —
// pressure only decreases — but grows increasingly over-conservative, which
// is exactly the staleness replanning recovers.
func driftGenLen(iter int) int { return max(1024>>iter, 128) }

// drift quantifies the paper's §8 limitation from the system side through
// two public realhf.Trainer sessions over the same GenLen ramp: a frozen one
// that executes the iteration-0 plan throughout, and a replanning one that
// re-searches when the scheduled length changes and switches plans only when
// the predicted gain covers the §5-priced reallocation. The replanning total
// includes every switch charge.
func drift(nodes, steps, iters int) (string, error) {
	ctx := context.Background()
	planner := realhf.NewPlanner(realhf.ClusterConfig{})
	cfg := realhf.ExperimentConfig{
		Nodes: nodes, BatchSize: 128 * nodes, PromptLen: 256, GenLen: driftGenLen(0),
		MiniBatches: 8, RPCs: realhf.PPORPCs("llama7b", "llama7b-critic"),
		SearchSteps: steps, Seed: 1,
	}
	campaign := func(opts ...realhf.TrainOption) (*realhf.CampaignReport, error) {
		tr, err := planner.Train(ctx, cfg, append(opts, realhf.WithGenLenSchedule(driftGenLen))...)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		return tr.Campaign(ctx, iters)
	}
	frozen, err := campaign(realhf.WithFrozenPlan())
	if err != nil {
		return "", err
	}
	replan, err := campaign()
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Ablation: GenLen drift — frozen plan vs replanning campaign (switch costs charged)\n")
	b.WriteString("==================================================================================\n")
	fmt.Fprintf(&b, "%-6s %8s %11s %11s %11s %9s\n",
		"Iter", "GenLen", "Frozen(s)", "Replan(s)", "Switch(s)", "Switched")
	for i, r := range replan.Iterations {
		fmt.Fprintf(&b, "%-6d %8d %11.2f %11.2f %11.3f %9v\n",
			r.Iter, r.GenLen, frozen.Iterations[i].MakespanV, r.MakespanV, r.ReallocSwitchCost, r.Switched)
	}
	fmt.Fprintf(&b, "%-6s %8s %11.2f %11.2f %11.3f %8.1f%%\n",
		"total", "", frozen.TotalMakespanV, replan.TotalMakespanV, replan.SwitchCostV,
		100*(frozen.TotalMakespanV-replan.TotalMakespanV)/frozen.TotalMakespanV)
	b.WriteString("\nReplanning pays for its parameter moves and still finishes the campaign\n")
	b.WriteString("sooner; the frozen plan leaves the short-generation iterations on a\n")
	b.WriteString("layout sized for the long ones (the §8 staleness the Trainer closes).\n")
	return b.String(), nil
}
