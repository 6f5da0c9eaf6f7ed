package experiments

import (
	"fmt"
	"math"
	"strings"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/model"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// Fig7Row is one bar of the end-to-end comparison.
type Fig7Row struct {
	GPUs       int
	ActorName  string
	CriticName string
	System     string
	PFLOPs     float64
	OOM        bool
}

// weakScalingActor maps device counts to actor sizes as in the paper's weak
// scaling protocol (§8, Settings).
func weakScalingActor(gpus int) (model.Config, bool) {
	switch gpus {
	case 16:
		return model.LLaMA7B, true
	case 32:
		return model.LLaMA13B, true
	case 64:
		return model.LLaMA34B, true
	case 128:
		return model.LLaMA70B, true
	}
	return model.Config{}, false
}

// Fig7 regenerates the end-to-end throughput comparison against the baseline
// systems under weak scaling. gpuCounts selects the cluster sizes (paper:
// 16–128 with a 7B critic, 32–128 with a 13B critic). OOM rows model the
// paper's red crosses.
func Fig7(critic model.Config, gpuCounts []int, steps int) ([]Fig7Row, string, error) {
	var rows []Fig7Row
	for _, gpus := range gpuCounts {
		actor, ok := weakScalingActor(gpus)
		if !ok {
			return nil, "", fmt.Errorf("experiments: no weak-scaling actor for %d GPUs", gpus)
		}
		s := PaperSetting(gpus/8, actor, critic)
		pr := NewProblem(s)
		// Baseline systems.
		for _, sys := range baselines.All() {
			plan, _, err := baselines.Evaluate(sys, pr.Est, pr.Cluster, pr.Graph, pr.Models)
			if err != nil {
				rows = append(rows, Fig7Row{GPUs: gpus, ActorName: actor.Name,
					CriticName: critic.Name, System: string(sys), OOM: true})
				continue
			}
			rep, tp, err := pr.Measure(plan)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, Fig7Row{GPUs: gpus, ActorName: actor.Name,
				CriticName: critic.Name, System: string(sys), PFLOPs: tp, OOM: rep.OOM})
		}
		// ReaL.
		res, _, err := pr.SearchPlan(steps, int64(gpus))
		if err != nil {
			return nil, "", err
		}
		rep, tp, err := pr.Measure(res.Plan)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig7Row{GPUs: gpus, ActorName: actor.Name,
			CriticName: critic.Name, System: "real", PFLOPs: tp, OOM: rep.OOM})
	}

	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 7: end-to-end throughput, scaling actor with %s critic", critic.Name)))
	fmt.Fprintf(&b, "%6s %7s %-16s %14s\n", "GPUs", "Actor", "System", "PFLOP/s")
	for _, r := range rows {
		val := fmt.Sprintf("%.2f", r.PFLOPs)
		if r.OOM {
			val = "X (OOM)"
		}
		fmt.Fprintf(&b, "%6d %7s %-16s %14s\n", r.GPUs, r.ActorName, r.System, val)
	}
	return rows, b.String(), nil
}

// Fig8Row compares ReaL's searched plan with the heuristic at one size combo
// and context length.
type Fig8Row struct {
	ActorName   string
	CriticName  string
	CtxLen      int
	RealPFLOPs  float64
	HeurPFLOPs  float64
	Improvement float64 // (real-heur)/heur
}

// Fig8Combos lists the paper's seven actor/critic size pairs.
func Fig8Combos() [][2]model.Config {
	return [][2]model.Config{
		{model.LLaMA7B, model.LLaMA7B},
		{model.LLaMA13B, model.LLaMA7B},
		{model.LLaMA13B, model.LLaMA13B},
		{model.LLaMA34B, model.LLaMA7B},
		{model.LLaMA34B, model.LLaMA13B},
		{model.LLaMA70B, model.LLaMA7B},
		{model.LLaMA70B, model.LLaMA13B},
	}
}

// Fig8 regenerates the searched-vs-heuristic throughput comparison at
// context lengths 2048 and 8192 on a 16-node cluster (or fewer nodes for
// quick runs). The paper's headline: +54% average at 2048, growing to +81%
// at 8192.
func Fig8(combos [][2]model.Config, nodes int, ctxs []int, steps int) ([]Fig8Row, string, error) {
	var rows []Fig8Row
	for _, combo := range combos {
		for _, ctx := range ctxs {
			s := PaperSetting(nodes, combo[0], combo[1]).WithContext(ctx)
			pr := NewProblem(s)
			heur, err := pr.HeuristicPlan()
			if err != nil {
				return nil, "", err
			}
			_, heurTP, err := pr.Measure(heur)
			if err != nil {
				return nil, "", err
			}
			res, _, err := pr.SearchPlan(steps, int64(ctx))
			if err != nil {
				return nil, "", err
			}
			_, realTP, err := pr.Measure(res.Plan)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, Fig8Row{
				ActorName: combo[0].Name, CriticName: combo[1].Name, CtxLen: ctx,
				RealPFLOPs: realTP, HeurPFLOPs: heurTP,
				Improvement: (realTP - heurTP) / heurTP,
			})
		}
	}
	var b strings.Builder
	b.WriteString(header("Figure 8: ReaL vs heuristic across model sizes and context lengths"))
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %8s\n", "Actor/Critic", "Ctx", "ReaL PF/s", "Heur PF/s", "Gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6d %12.2f %12.2f %+7.0f%%\n",
			r.ActorName+"/"+r.CriticName, r.CtxLen, r.RealPFLOPs, r.HeurPFLOPs, 100*r.Improvement)
	}
	return rows, b.String(), nil
}

// ProgressiveStage is one bar of the Fig. 9 / Fig. 2 style optimization
// walk.
type ProgressiveStage struct {
	Name     string
	WallTime float64
	Plan     *core.Plan
}

// Fig9 regenerates the progressive-optimization breakdown: starting from the
// heuristic plan without CUDA graphs, it applies, in order, CUDA-graph
// generation, generation parallelization, training parallelization with
// concurrent execution, and inference parallelization — measuring the wall
// time after each step (paper Fig. 9; the same walk with percentage gains is
// Fig. 2).
func Fig9(s Setting, steps int, seed int64) ([]ProgressiveStage, string, error) {
	pr := NewProblem(s)
	heur, err := pr.HeuristicPlan()
	if err != nil {
		return nil, "", err
	}
	measure := func(p *core.Plan, cudaGraph bool) (float64, error) {
		rep, err := runtime.Run(p, runtime.Options{UseCUDAGraph: cudaGraph})
		if err != nil {
			return 0, err
		}
		return rep.MakespanV, nil
	}

	var stages []ProgressiveStage
	t0, err := measure(heur, false)
	if err != nil {
		return nil, "", err
	}
	stages = append(stages, ProgressiveStage{Name: "Heuristic (no CUDAGraph)", WallTime: t0, Plan: heur})

	t1, err := measure(heur, true)
	if err != nil {
		return nil, "", err
	}
	stages = append(stages, ProgressiveStage{Name: "+ CUDAGraph generation", WallTime: t1, Plan: heur})

	// Groups of calls optimized cumulatively: generation, then training,
	// then inference.
	groups := [][]string{
		{"ActorGen", "SampleGen", "GreedyGen"},
		{"ActorTrain", "CriticTrain"},
		{"RewInf", "RefInf", "CriticInf", "SampleRew", "GreedyRew"},
	}
	groupNames := []string{"+ Generation opt.", "+ Training opt. & concurrency", "+ Inference opt. & concurrency"}
	cur := heur
	var unlocked []string
	for gi, group := range groups {
		for _, name := range group {
			if _, ok := cur.Assign[name]; ok {
				unlocked = append(unlocked, name)
			}
		}
		// Restricted chains explore a big per-call space with few free
		// calls; run a handful of independent chains and keep the best.
		best := cur
		bestCost := math.Inf(1)
		for chain := 0; chain < 3; chain++ {
			res, _, err := pr.Solve(false, search.Options{
				MaxSteps: steps, Seed: seed + int64(gi) + int64(100*chain),
				InitialPlan: cur, RestrictCalls: unlocked,
			})
			if err != nil {
				return nil, "", err
			}
			if res.Cost < bestCost {
				best, bestCost = res.Plan, res.Cost
			}
		}
		cur = best
		t, err := measure(cur, true)
		if err != nil {
			return nil, "", err
		}
		stages = append(stages, ProgressiveStage{Name: groupNames[gi], WallTime: t, Plan: cur})
	}

	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 9: progressive optimization, %s actor + %s critic, %d GPUs",
		s.Actor.Name, s.Critic.Name, s.Nodes*8)))
	prev := stages[0].WallTime
	for i, st := range stages {
		delta := ""
		if i > 0 {
			delta = fmt.Sprintf("  (-%.1fs)", prev-st.WallTime)
			prev = st.WallTime
		}
		fmt.Fprintf(&b, "%-32s %8.1fs%s\n", st.Name, st.WallTime, delta)
	}
	return stages, b.String(), nil
}

// Fig2 reports the same walk as sequential percentage improvements over the
// heuristic plan (paper Fig. 2: +Opt.Inf, +Critic realloc, +Actor realloc).
func Fig2(s Setting, steps int, seed int64) (string, error) {
	stages, _, err := Fig9(s, steps, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("Figure 2: optimization opportunity over the 3D-parallel heuristic"))
	base := stages[1].WallTime // with CUDA graphs, as the Fig. 2 baseline
	prev := base
	for _, st := range stages[2:] {
		gain := (prev - st.WallTime) / st.WallTime
		fmt.Fprintf(&b, "%-32s %+6.0f%%\n", st.Name, 100*gain)
		prev = st.WallTime
	}
	total := (base - prev) / prev
	fmt.Fprintf(&b, "%-32s %+6.0f%%\n", "total", 100*total)
	return b.String(), nil
}
