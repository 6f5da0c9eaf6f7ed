package search

import (
	"context"
	"fmt"
	"math"
	"time"

	"realhf/internal/core"
)

// exhaustiveSolver approximates the exhaustive optimum of Fig. 15 on small
// clusters: for every call it shortlists the topK fastest individual
// assignments (opt.MaxCandidatesPerCall, default 6), then evaluates the
// full cross product. (A literal exhaustive enumeration over all ~10¹⁵
// joint plans is infeasible even on 8 GPUs; the shortlist preserves the
// optimum whenever the best joint plan is composed of individually
// competitive assignments, which Fig. 15 shows holds in practice.)
type exhaustiveSolver struct{}

func (exhaustiveSolver) Name() string { return "exhaustive" }

func (exhaustiveSolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	e, p := prob.estimator(), prob.Plan
	topK := opt.MaxCandidatesPerCall
	if topK <= 0 {
		topK = 6
	}
	sets, spaceLog10, err := candidateSets(p, PruneNone, opt.OffloadSearch)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	listed, _, err := shortlist(e, p, sets, topK, true)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	names := p.CallNames()
	short := make([][]core.Assignment, len(names))
	for i, name := range names {
		short[i] = listed[name]
	}

	sess := e.NewSession(nil)

	start := time.Now() //lint:realvet wallclock -- TimeLimit budget and Elapsed trace are wall-clock features; plan bytes never depend on them
	best := math.Inf(1)
	bestOOM := true
	var bestPlan *core.Plan
	// One trial plan, mutated in place per combination; it is cloned only
	// when it improves on the best seen so far.
	trial := p.Clone()
	idx := make([]int, len(names))
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			// A partial sweep must not masquerade as the exhaustive
			// optimum (Fig. 15 treats the result as ground truth).
			return Solution{}, Stats{}, fmt.Errorf("search: exhaustive sweep aborted after %d plans: %w", steps, err)
		}
		for i, name := range names {
			trial.Assign[name] = short[i][idx[i]]
		}
		if pc, err := sess.Evaluate(trial); err == nil {
			steps++
			if beats(pc.OOM, pc.Cost, bestOOM, best) {
				best, bestOOM, bestPlan = pc.Cost, pc.OOM, trial.Clone()
				if opt.Progress != nil {
					//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
					opt.Progress(ProgressPoint{Elapsed: time.Since(start), Step: steps, BestCost: best})
				}
			}
		}
		// Advance the mixed-radix counter.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(short[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	if bestPlan == nil {
		return Solution{}, Stats{}, fmt.Errorf("search: brute force found no feasible plan")
	}
	bestRes, hit, err := opt.Cache.lookup(e, bestPlan)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	st := Stats{
		Steps: steps, SpaceLog10: spaceLog10,
		Trace: []ProgressPoint{
			{Step: 0, BestCost: best},
			//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
			{Elapsed: time.Since(start), Step: steps, BestCost: best},
		},
	}
	st.countLookup(hit)
	return Solution{Plan: bestPlan, Cost: best, Estimate: bestRes}, st, nil
}
