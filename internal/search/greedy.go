package search

import (
	"context"
	"fmt"
	"math"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// greedyFromSets builds the paper's seed plan p₀ over precomputed candidate
// sets: every call independently takes the assignment minimizing its own
// estimated duration, ignoring overlap and memory (§5.2 notes this seed is
// usually sub-optimal for exactly those reasons). A call's duration does
// not depend on where its mesh starts, so each option is costed once, on
// its size's first mesh. Options are in candidate order and a size's first
// mesh carries all of them before any other mesh of the size, so the strict
// first minimum over the options is the first minimum over the candidates.
func greedyFromSets(e *estimator.Estimator, p *core.Plan, sets map[string]*cands) (*core.Plan, error) {
	byName := nodesByName(p)
	out := p.Clone()
	for name, n := range byName {
		best := math.Inf(1)
		var bestA core.Assignment
		for _, a := range sets[name].opts {
			t, err := callTime(e, p, n, a)
			if err != nil {
				continue
			}
			if t < best {
				best, bestA = t, a
			}
		}
		if math.IsInf(best, 1) {
			return nil, fmt.Errorf("search: no costable assignment for %q", name)
		}
		out.Assign[name] = bestA
	}
	return out, nil
}

// greedySolver is the greedy seeder as a Solver: it builds the per-call
// minimizing seed plan and reports its estimate, with no sampling. Deterministic and
// seed-independent.
type greedySolver struct{}

func (greedySolver) Name() string { return "greedy" }

func (greedySolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: greedy solve cancelled: %w", err)
	}
	e := prob.estimator()
	sets, spaceLog10, err := candidateSets(prob.Plan, opt.Prune, opt.OffloadSearch)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	plan, err := greedyFromSets(e, prob.Plan, sets)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	res, hit, err := opt.Cache.lookup(e, plan)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	st := Stats{
		SpaceLog10: spaceLog10,
		Trace:      []ProgressPoint{{Step: 0, BestCost: res.Cost}},
	}
	st.countLookup(hit)
	if opt.Progress != nil {
		opt.Progress(st.Trace[0])
	}
	return Solution{Plan: plan, Cost: res.Cost, Estimate: res}, st, nil
}
