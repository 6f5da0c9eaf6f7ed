// Package search implements the paper's execution-plan search (§5.2) behind
// a pluggable Solver interface: a greedy per-call seeder, a
// Metropolis–Hastings MCMC walker (one chain, or several with periodic
// best-plan exchange), and a bounded exhaustive search used as the
// optimality reference of Fig. 15. An MCMC walk starts from the cheapest of
// the greedy seed, the REAL-Heuristic plan (internal/baselines) and the
// caller's Options.SeedCandidates, or from Options.InitialPlan. Every MCMC
// chain and the exhaustive sweep score plans through their own incremental
// estimator.EvalSession; a solve consults the plan-level CostCache once,
// for its final estimate.
package search

import (
	"context"
	"fmt"
	"sort"
	"time"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// Problem bundles what every solver needs: the cost model and the plan
// template (cluster, graph, models; assignments may be empty).
type Problem struct {
	Est  *estimator.Estimator
	Plan *core.Plan
	// Overlap makes solvers score every candidate plan with the
	// overlapped-engine cost semantics (estimator.Estimator.OverlapComm):
	// Algorithm 1 then simulates a second per-device communication lane, the
	// schedule the runtime actually executes under realhf.DefaultRunOptions.
	// The default (false) keeps the historical fully-serialized objective,
	// so existing solves and golden plans are unchanged. The flag composes
	// with Est: an estimator that already has OverlapComm set keeps it.
	Overlap bool
}

// estimator resolves the cost model solvers must score candidates with:
// prob.Est as-is, or a copy with OverlapComm enabled when prob.Overlap asks
// for the overlapped objective. The copy shares the immutable cost tables,
// so it is as cheap and concurrency-safe as the original.
func (prob Problem) estimator() *estimator.Estimator {
	if !prob.Overlap || prob.Est == nil || prob.Est.OverlapComm {
		return prob.Est
	}
	e := *prob.Est
	e.OverlapComm = true
	return &e
}

// Solution is a solver's chosen plan with its estimate.
type Solution struct {
	Plan     *core.Plan
	Cost     float64
	Estimate *estimator.Result
}

// ChainStats reports one MCMC chain's work, for per-chain convergence
// reporting in cmd/realsearch.
type ChainStats struct {
	Chain    int
	Seed     int64
	Proposed int
	Accepted int
	// BoundRejected counts proposals rejected on the call-only lower bound
	// (estimator.EvalSession.Bound) without a full estimate.
	BoundRejected int
	BestCost      float64
}

// Stats aggregates solver-side counters: step/acceptance totals, the
// convergence trace, the pruned-space size, the final-estimate cache
// lookup, and per-chain MCMC breakdowns.
type Stats struct {
	// Steps counts solver steps. For MCMC it is the number of
	// proposals attempted, summed over chains — including proposals whose
	// evaluation failed — and always equals the sum of ChainStats.Proposed.
	// For the exhaustive solver it is the number of plans evaluated.
	Steps int
	// Accepted counts accepted Metropolis moves (summed over chains).
	Accepted int
	// BoundRejected counts MCMC proposals rejected on the call-only lower
	// bound without a full estimate, summed over chains. They are among
	// Steps, never among Accepted.
	BoundRejected int
	// Trace samples best-cost-so-far over search time. For a multi-chain
	// solve it is the merged global-best curve.
	Trace []ProgressPoint
	// SpaceLog10 is the log₁₀ size of the pruned joint candidate space.
	SpaceLog10 float64
	// CacheHits and CacheMisses record the solve's one cost-cache lookup,
	// for its final estimate: exactly one of them is 1. They show whether
	// the winning plan was already in a shared Options.Cache; the
	// benchmark harness (bench/realperf) sums them across solves.
	CacheHits, CacheMisses int64
	// Chains carries per-chain MCMC counters (one entry for a single
	// chain; empty for the other solvers).
	Chains []ChainStats
}

// countLookup records the solve's final-estimate lookup.
func (s *Stats) countLookup(hit bool) {
	if hit {
		s.CacheHits++
	} else {
		s.CacheMisses++
	}
}

// Solver finds an execution plan for a problem. Implementations must be
// deterministic for a fixed Options.Seed whenever the run is step-bounded
// (MaxSteps > 0): the same seed yields a byte-identical chosen plan.
type Solver interface {
	Name() string
	Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error)
}

// PruneLevel selects how aggressively the candidate space is cut before
// sampling (paper Fig. 14).
type PruneLevel int

const (
	// PruneNone keeps every legal mesh and factorization (tensor
	// parallelism is still capped at the node size — the paper prunes
	// cross-node TP unconditionally).
	PruneNone PruneLevel = iota
	// PruneModerate restricts multi-node meshes to power-of-two node spans
	// aligned to their size.
	PruneModerate
	// PruneAggressive additionally caps pipeline depth at 16 stages and
	// micro-batch counts at 8.
	PruneAggressive
)

// Options configures a search run.
type Options struct {
	// TimeLimit bounds wall-clock search time (default 5 s).
	TimeLimit time.Duration
	// MaxSteps bounds MCMC steps per chain (0 = unbounded; the time limit
	// governs).
	MaxSteps int
	// Seed makes the search deterministic. A multi-chain MCMC solve derives
	// each chain's seed from it (chain 0 uses it verbatim, so a one-chain
	// run is the sequential walk).
	Seed int64
	// Prune selects the candidate-space pruning level.
	Prune PruneLevel
	// MaxCandidatesPerCall, when positive, shortlists each call's candidate
	// set to the N fastest individual assignments before sampling — the
	// knob behind the Fig. 14 pruning ablation (a cap of N yields a joint
	// space of ~N^calls plans). The exhaustive solver uses it as its
	// per-call shortlist width (default 6).
	MaxCandidatesPerCall int
	// Progress, when non-nil, streams every recorded ProgressPoint (samples
	// every progressEvery steps and best-cost improvements) while the search
	// runs — the hook behind the public API's WithProgress option. A
	// multi-chain solve serializes invocations, so the callback needs no
	// locking of its own, but it runs on the search's critical path and
	// must be fast. Callback order across chains is scheduling-dependent;
	// the chosen plan is not.
	Progress func(ProgressPoint)
	// InitialPlan, when set, replaces the solver's own seeds: the walk
	// starts from it (or a cheaper SeedCandidates plan) and evaluates
	// neither the greedy seed nor the REAL-Heuristic plan. It must be fully
	// assigned.
	InitialPlan *core.Plan
	// SeedCandidates are fully-assigned plans the caller already holds (a
	// warm start from an earlier solve, say), evaluated after the solver's
	// own seeds; the walk starts from the cheapest. The solver seeds itself
	// with the REAL-Heuristic plan, so a caller never needs to pass it.
	SeedCandidates []*core.Plan
	// RestrictCalls, when non-empty, limits MCMC moves to the named calls;
	// all other assignments stay frozen at the initial plan. Used by the
	// progressive-optimization breakdowns (paper Figs. 2 and 9).
	RestrictCalls []string
	// Chains is the number of MCMC chains: 0 and 1 both run the single
	// sequential chain, and the other solvers ignore it.
	Chains int
	// ExchangeEvery is the per-chain step interval between best-plan
	// exchanges of a multi-chain MCMC solve (default 256). Exchanges happen
	// at deterministic step boundaries so multi-chain runs stay
	// reproducible.
	ExchangeEvery int
	// Cache is the plan-level memo the solve's final estimate goes through
	// (nil evaluates it directly). The walk never reads it. A caller that
	// re-estimates plans of one problem, as the Planner's problem pool does,
	// passes its cache so the winning plan's estimate is stored there.
	// Entries are keyed by the cost semantics in use, so one cache may
	// safely serve both serialized and overlap-aware (Problem.Overlap)
	// solves of the same problem.
	Cache *CostCache
	// OffloadSearch makes host offload a searched plan dimension: candidate
	// enumeration emits an offloaded variant of every frozen-role assignment,
	// and MCMC chains gain a dedicated offload-flip proposal move. The
	// memory ledger is a hard constraint in every solve, with or without
	// it: a feasible plan beats any infeasible one regardless of the
	// OOM-penalized cost, so no search returns an over-memory plan while a
	// fitting one was seen. The default (false) keeps every parameter
	// device-resident, leaving existing solves, RNG streams and golden plans
	// byte-identical.
	OffloadSearch bool
}

func (o Options) withDefaults() Options {
	if o.TimeLimit == 0 {
		o.TimeLimit = 5 * time.Second
	}
	if o.ExchangeEvery == 0 {
		o.ExchangeEvery = 256
	}
	return o
}

// ProgressPoint is one sample of best-cost-so-far over search time.
type ProgressPoint struct {
	Elapsed  time.Duration
	Step     int
	BestCost float64
}

// --- solver registry ---

// solvers is the fixed registry table. It is never written, so concurrent
// solves may resolve solvers without locking.
var solvers = map[string]Solver{
	"greedy":     greedySolver{},
	"mcmc":       mcmcSolver{},
	"exhaustive": exhaustiveSolver{},
}

// New resolves a registered solver by name.
func New(name string) (Solver, error) {
	s, ok := solvers[name]
	if !ok {
		return nil, fmt.Errorf("search: unknown solver %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered solver names, sorted.
func Names() []string {
	out := make([]string, 0, len(solvers))
	for name := range solvers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Solve resolves a solver by name and runs it.
func Solve(ctx context.Context, name string, prob Problem, opt Options) (Solution, Stats, error) {
	s, err := New(name)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	return s.Solve(ctx, prob, opt)
}
