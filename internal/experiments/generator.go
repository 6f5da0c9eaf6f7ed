package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/model"
	"realhf/internal/profiler"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// Fig12Point is one (estimated, measured) pair of the accuracy scatter.
type Fig12Point struct {
	Label    string
	Est      float64
	Real     float64
	RelError float64
}

// Fig12 regenerates the estimator study: (left) the profiling cost per model
// size and (right) estimated-vs-real times for searched and heuristic plans
// under both schedule semantics — serialized estimator vs serialized
// runtime, and overlapped estimator vs overlapped runtime — with the
// estimator driven by noisy interpolated profiles while the runtime uses
// ground truth (paper Fig. 12: errors stay under ~25% and the relative
// ordering of plans is preserved). The runtime executes the Algorithm 1
// timeline of an oracle-costed estimator, so the gap comes from the
// profiled tables (and, in a Trainer session, calibration) alone.
func Fig12(scales []int, steps int) ([]Fig12Point, string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 12 (left): profiler wall time per model"))
	hwProf := PaperSetting(2, model.LLaMA7B, model.LLaMA7B).Cluster()
	for _, cfg := range model.All() {
		tab, err := profiler.Profile(hwProf, cfg, profiler.Options{Seed: 1})
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&b, "  %-5s %8.1fs\n", cfg.Name, tab.ProfileCost)
	}

	var points []Fig12Point
	b.WriteString(header("Figure 12 (right): estimated vs real iteration times"))
	actorBy := map[int]model.Config{2: model.LLaMA7B, 4: model.LLaMA13B, 8: model.LLaMA34B, 16: model.LLaMA70B}
	for _, nodes := range scales {
		actor, ok := actorBy[nodes]
		if !ok {
			actor = model.LLaMA7B
		}
		s := PaperSetting(nodes, actor, model.LLaMA7B)
		pr := NewProblem(s)
		// Estimator driven by profiled (noisy, interpolated) tables.
		costers := map[dfg.Role]gpumodel.ModelCoster{}
		for role, ms := range pr.Models {
			tab, err := profiler.Profile(pr.Cluster, ms.Cfg, profiler.Options{Seed: int64(nodes)})
			if err != nil {
				return nil, "", err
			}
			costers[role] = tab
		}
		profEst := estimator.New(pr.Cluster, costers)

		heur, err := pr.HeuristicPlan()
		if err != nil {
			return nil, "", err
		}
		res, _, err := search.Solve(context.Background(), "mcmc",
			search.Problem{Est: profEst, Plan: pr.EmptyPlan()},
			search.Options{MaxSteps: steps, Seed: int64(nodes)})
		if err != nil {
			return nil, "", err
		}
		// Overlapped twin of the profiled estimator: same noisy tables,
		// Algorithm 1 simulating the runtime's communication streams.
		ovEst := *profEst
		ovEst.OverlapComm = true
		for _, pl := range []struct {
			label string
			plan  *core.Plan
		}{{"heuristic", heur}, {"searched", res.Plan}} {
			// Both schedule semantics: the serialized estimator against the
			// serialized runtime, and the overlapped estimator against the
			// overlapped runtime, so the accuracy claim covers the engine
			// the system actually deploys (DefaultRunOptions overlaps).
			for _, sem := range []struct {
				name    string
				est     *estimator.Estimator
				overlap bool
			}{{"serial", profEst, false}, {"overlap", &ovEst, true}} {
				est, err := sem.est.Evaluate(pl.plan)
				if err != nil {
					return nil, "", err
				}
				rep, err := runtime.Run(pl.plan, runtime.Options{
					UseCUDAGraph: true, OverlapComm: sem.overlap,
				})
				if err != nil {
					return nil, "", err
				}
				rel := (est.TimeCost - rep.MakespanV) / rep.MakespanV
				if rel < 0 {
					rel = -rel
				}
				points = append(points, Fig12Point{
					Label:    fmt.Sprintf("%s-%dgpu-%s-%s", actor.Name, nodes*8, pl.label, sem.name),
					Est:      est.TimeCost,
					Real:     rep.MakespanV,
					RelError: rel,
				})
			}
		}
	}
	fmt.Fprintf(&b, "%-28s %10s %10s %8s\n", "Plan", "Est (s)", "Real (s)", "Err")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-28s %10.1f %10.1f %7.1f%%\n", pt.Label, pt.Est, pt.Real, 100*pt.RelError)
	}
	return points, b.String(), nil
}

// ConvergenceCurve is one line of the search-convergence figures: the best
// cost relative to the initial (greedy) cost as the search proceeds.
type ConvergenceCurve struct {
	Label      string
	SpaceLog10 float64
	// Points are (elapsed, improvement ratio) samples; the ratio is
	// best/initial, so lower is better and 1.0 is the seed plan.
	Points []ConvergencePoint
}

// ConvergencePoint is one sample of a convergence curve.
type ConvergencePoint struct {
	Elapsed time.Duration
	Step    int
	Ratio   float64
}

func curveFrom(label string, st search.Stats) ConvergenceCurve {
	c := ConvergenceCurve{Label: label, SpaceLog10: st.SpaceLog10}
	if len(st.Trace) == 0 {
		return c
	}
	initial := st.Trace[0].BestCost
	for _, pt := range st.Trace {
		c.Points = append(c.Points, ConvergencePoint{
			Elapsed: pt.Elapsed, Step: pt.Step, Ratio: pt.BestCost / initial,
		})
	}
	return c
}

// FinalRatio is the last improvement ratio of the curve.
func (c ConvergenceCurve) FinalRatio() float64 {
	if len(c.Points) == 0 {
		return 1
	}
	return c.Points[len(c.Points)-1].Ratio
}

// Fig13 regenerates the search-convergence study: improvement ratio over
// search progress for the four model scales at context lengths 2048 and 8192
// (paper Fig. 13).
func Fig13(steps int, ctxs []int) ([]ConvergenceCurve, string, error) {
	scales := []struct {
		nodes int
		actor model.Config
	}{
		{2, model.LLaMA7B}, {4, model.LLaMA13B}, {8, model.LLaMA34B}, {16, model.LLaMA70B},
	}
	var curves []ConvergenceCurve
	for _, ctx := range ctxs {
		for _, sc := range scales {
			s := PaperSetting(sc.nodes, sc.actor, model.LLaMA7B).WithContext(ctx)
			pr := NewProblem(s)
			_, st, err := pr.SearchPlan(steps, int64(ctx+sc.nodes))
			if err != nil {
				return nil, "", err
			}
			curves = append(curves, curveFrom(
				fmt.Sprintf("%s ctx%d", sc.actor.Name, ctx), st))
		}
	}
	var b strings.Builder
	b.WriteString(header("Figure 13: improvement ratio vs search progress"))
	fmt.Fprintf(&b, "%-16s %10s %12s\n", "Setting", "Final", "Space(log10)")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-16s %10.3f %12.1f\n", c.Label, c.FinalRatio(), c.SpaceLog10)
	}
	return curves, b.String(), nil
}

// Fig14 regenerates the pruning ablation on a 1024-GPU cluster: MCMC over
// candidate spaces pruned to ~10^14, ~10^16 and ~10^18 plans (caps of 215,
// 464 and 1000 candidates per call across 6 calls). Smaller spaces converge
// faster (paper Fig. 14).
func Fig14(steps int, caps []int) ([]ConvergenceCurve, string, error) {
	if len(caps) == 0 {
		caps = []int{215, 464, 1000}
	}
	s := PaperSetting(128, model.LLaMA70B, model.LLaMA7B)
	pr := NewProblem(s)
	var curves []ConvergenceCurve
	for _, cap := range caps {
		_, st, err := pr.Solve(false, search.Options{
			MaxSteps: steps, Seed: int64(cap),
			Prune: search.PruneModerate, MaxCandidatesPerCall: cap,
		})
		if err != nil {
			return nil, "", err
		}
		curves = append(curves, curveFrom(fmt.Sprintf("cap=%d (~1e%.0f plans)", cap, st.SpaceLog10), st))
	}
	var b strings.Builder
	b.WriteString(header("Figure 14: MCMC with pruned search spaces, 1024 GPUs"))
	fmt.Fprintf(&b, "%-24s %10s\n", "Space", "FinalRatio")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-24s %10.3f\n", c.Label, c.FinalRatio())
	}
	return curves, b.String(), nil
}

// Fig15Result compares MCMC against the bounded exhaustive optimum for one
// batch/seqlen setting on 8 GPUs.
type Fig15Result struct {
	Label       string
	OptimalCost float64
	MCMC        ConvergenceCurve
	MCMCBest    float64
}

// Fig15 regenerates the optimality study: on a single node with 7B models,
// MCMC reaches within a few percent of the brute-force optimum in seconds
// (paper Fig. 15).
func Fig15(steps, topK int) ([]Fig15Result, string, error) {
	settings := []struct {
		batch, seqLen int
	}{
		{512, 2048}, {1024, 1024}, {2048, 512},
	}
	var out []Fig15Result
	for _, cfg := range settings {
		s := Setting{
			Nodes: 1, Actor: model.LLaMA7B, Critic: model.LLaMA7B,
			Spec: dfg.Spec{
				Batch: cfg.batch, PromptLen: cfg.seqLen / 2, GenLen: cfg.seqLen / 2,
				MiniBatches: 8, Iterations: 1,
			},
		}
		pr := NewProblem(s)
		bf, _, err := search.Solve(context.Background(), "exhaustive", pr.SearchProblem(false),
			search.Options{MaxCandidatesPerCall: topK})
		if err != nil {
			return nil, "", err
		}
		res, st, err := pr.SearchPlan(steps, int64(cfg.batch))
		if err != nil {
			return nil, "", err
		}
		out = append(out, Fig15Result{
			Label:       fmt.Sprintf("BS=%d SeqLen=%d", cfg.batch, cfg.seqLen),
			OptimalCost: bf.Cost,
			MCMC:        curveFrom("mcmc", st),
			MCMCBest:    res.Cost,
		})
	}
	var b strings.Builder
	b.WriteString(header("Figure 15: MCMC vs brute-force optimum, 7B+7B on 8 GPUs"))
	fmt.Fprintf(&b, "%-22s %12s %12s %10s\n", "Setting", "Optimal (s)", "MCMC (s)", "Gap")
	for _, r := range out {
		gap := (r.MCMCBest - r.OptimalCost) / r.OptimalCost
		fmt.Fprintf(&b, "%-22s %12.1f %12.1f %+9.1f%%\n", r.Label, r.OptimalCost, r.MCMCBest, 100*gap)
	}
	return out, b.String(), nil
}
