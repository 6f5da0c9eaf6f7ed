package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/estimator"
)

// seedStride derives per-chain RNG seeds from Options.Seed: chain i runs on
// Seed + i·seedStride (a large odd constant, so chains never share streams),
// and chain 0 uses Options.Seed verbatim — a one-chain run is therefore the
// sequential walk.
const seedStride uint64 = 0x9E3779B97F4A7C15

// progressEvery is the step interval between periodic trace points.
const progressEvery = 64

// adaptiveBeta is the sampling temperature β of P(p) ∝ exp(−β·cost), scaled
// to the best cost a chain knows (10/cost) so relative cost differences
// matter uniformly across problem sizes.
func adaptiveBeta(cost float64) float64 { return 10 / math.Max(cost, 1e-9) }

// boundMargin widens the bound-first Metropolis test (DESIGN.md) so it
// never rejects a proposal the full test would accept: math.Exp, in
// assembly on amd64, is not documented as monotone.
const boundMargin = 1e-12

func chainSeed(base int64, chain int) int64 {
	return base + int64(uint64(chain)*seedStride)
}

// chainState is one Metropolis–Hastings chain. Between exchange barriers a
// chain is touched by exactly one goroutine; barriers are the only points
// where state crosses chains.
type chainState struct {
	idx  int
	seed int64
	rng  *rand.Rand

	// cur is mutated in place by proposals (one assignment re-drawn, undone
	// on reject); best is a snapshot plan whose assignment map is overwritten
	// — never reallocated — on improvement. Costs are compact scalars; the
	// winner's full estimator.Result is materialized once per solve.
	cur      *core.Plan
	curCost  float64
	best     *core.Plan
	bestCost float64
	// curOOM/bestOOM track feasibility alongside the costs: best tracking,
	// exchange and the final winner reduction order plans by beats.
	curOOM  bool
	bestOOM bool

	sess *estimator.EvalSession

	beta float64

	step          int // proposals attempted (including failed evaluations)
	accepted      int
	boundRejected int // proposals rejected on EvalSession.Bound, unscored
	trace         []ProgressPoint
	progress      func(ProgressPoint)
	done          bool
	cancelled     bool
}

// beats is the one order every solve ranks plans by, an (OOM, cost) pair
// against the best so far, with the memory ledger as a hard constraint: any
// feasible plan beats any infeasible one, and cost breaks ties within a
// feasibility class. The OOM-penalized cost almost always agrees, but the
// lexicographic order makes the guarantee absolute — a search that saw a
// fitting plan can never return an over-memory one.
func beats(oom bool, cost float64, bestOOM bool, bestCost float64) bool {
	if oom != bestOOM {
		return !oom
	}
	return cost < bestCost
}

// copyAssign overwrites dst's assignments with src's without reallocating the
// map. Both plans of a chain share the same key set (the problem's call
// names), so no deletion pass is needed.
func copyAssign(dst, src *core.Plan) {
	for k, v := range src.Assign {
		dst.Assign[k] = v
	}
}

// record appends a trace point and streams it to the progress callback.
func (c *chainState) record(pt ProgressPoint) {
	c.trace = append(c.trace, pt)
	if c.progress != nil {
		c.progress(pt)
	}
}

// run advances the chain until its per-chain budget (opt.MaxSteps or
// opt.TimeLimit), the round boundary `until` (0 = none), or ctx
// cancellation.
func (c *chainState) run(ctx context.Context, sp *space, opt Options, start time.Time, until int) {
	for {
		step := c.step + 1
		if opt.MaxSteps > 0 && step > opt.MaxSteps {
			c.done = true
			return
		}
		//lint:realvet wallclock -- TimeLimit mode is wall-clock by design; deterministic runs pin MaxSteps
		if opt.MaxSteps == 0 && time.Since(start) > opt.TimeLimit {
			c.done = true
			return
		}
		if until > 0 && step > until {
			return
		}
		if ctx.Err() != nil {
			c.done, c.cancelled = true, true
			return
		}
		c.step = step
		if c.propose(sp, opt, start) && step%progressEvery == 0 {
			c.record(ProgressPoint{ //lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
				Elapsed: time.Since(start), Step: step, BestCost: c.bestCost,
			})
		}
	}
}

// propose makes step c.step: it draws one move, applies the Metropolis test
// and undoes the move on reject. It reports false when the moved plan fails
// to evaluate; the move is then undone with no Metropolis draw. The RNG
// consumption order replicates the pre-Solver engine exactly — one Intn per
// call pick, one per candidate pick, one Float64 only when the Metropolis
// test is reached — so a fixed seed reproduces its plan bit for bit.
// Proposals mutate cur in place instead of cloning the plan per step.
func (c *chainState) propose(sp *space, opt Options, start time.Time) bool {
	// Propose: re-draw one call's assignment uniformly. With the offload
	// axis enabled, a quarter of the proposals on frozen-role calls are
	// dedicated single-offload-flip moves: they keep the layout and toggle
	// only the host-offload bit, the mutation the incremental evaluator
	// re-costs at a single augmented-graph node. (The gate draws RNG only
	// under OffloadSearch, so default solves keep their historical streams.)
	ni := c.rng.Intn(len(sp.names))
	name := sp.names[ni]
	cs := sp.cands[ni]
	prev := c.cur.Assign[name]
	if opt.OffloadSearch && sp.frozen[ni] && c.rng.Intn(4) == 0 {
		next := prev
		next.Offload = !prev.Offload
		c.cur.Assign[name] = next
	} else {
		c.cur.Assign[name] = cs.at(c.rng.Intn(cs.n))
	}

	// Bound-first Metropolis test (DESIGN.md). The full cost is at least
	// the call-only bound, so once the bound exceeds curCost the full test
	// is certain to draw u: draw it now. If u fails the test at the bound it
	// fails at the full cost, and the move is rejected unscored; otherwise
	// the full test below reuses u. Bound fails wherever Evaluate does, so
	// no draw is taken ahead of an evaluation error.
	u := -1.0
	if lb, err := c.sess.Bound(c.cur); err == nil && lb > c.curCost {
		u = c.rng.Float64()
		if u >= math.Exp(-c.beta*(lb-c.curCost))*(1+boundMargin) {
			c.cur.Assign[name] = prev
			c.boundRejected++
			return true
		}
	}
	pc, err := c.sess.Evaluate(c.cur)
	if err != nil {
		c.cur.Assign[name] = prev
		return false
	}
	accept := pc.Cost <= c.curCost
	if !accept {
		if u < 0 {
			u = c.rng.Float64()
		}
		accept = u < math.Exp(-c.beta*(pc.Cost-c.curCost))
	}
	if !accept {
		c.cur.Assign[name] = prev
		return true
	}
	c.curCost = pc.Cost
	c.curOOM = pc.OOM
	c.accepted++
	if beats(pc.OOM, pc.Cost, c.bestOOM, c.bestCost) {
		c.bestCost = pc.Cost
		c.bestOOM = pc.OOM
		copyAssign(c.best, c.cur)
		// Keep the temperature matched to the current cost scale: an
		// OOM-penalized seed would otherwise leave β so small that the
		// chain random-walks forever.
		c.beta = adaptiveBeta(c.bestCost)
		c.record(ProgressPoint{ //lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
			Elapsed: time.Since(start), Step: c.step, BestCost: c.bestCost,
		})
	}
	return true
}

// startState resolves the shared initial plan, the one seeding policy of
// every MCMC solve. The candidates are the caller's InitialPlan or, without
// one, the greedy seed (minimizing over the full pre-shortlist candidate
// sets, reusing the solver's enumeration) and the REAL-Heuristic plan, then
// the SeedCandidates; the walk starts from the cheapest, the earliest on
// ties. The greedy seed ignores memory, so the heuristic is what most
// paper-scale walks start from. A walk with an InitialPlan gets no
// heuristic, so the calls outside RestrictCalls stay where the caller froze
// them. Seeds are scored through sess, chain 0's session. They are
// Plan.Validated first: the session assumes individually legal assignments,
// and an illegal caller-provided plan must fail (for InitialPlan) or be
// skipped (for SeedCandidates) exactly as it would under
// Estimator.Evaluate.
func startState(sess *estimator.EvalSession, e *estimator.Estimator,
	p *core.Plan, sp *space, opt Options) (*core.Plan, estimator.PlanCost, error) {
	var cur *core.Plan
	var err error
	seeds := opt.SeedCandidates
	if opt.InitialPlan != nil {
		cur = opt.InitialPlan.Clone()
		if err := cur.Validate(); err != nil {
			return nil, estimator.PlanCost{}, err
		}
	} else {
		cur, err = greedyFromSets(e, p, sp.full)
		if err != nil {
			return nil, estimator.PlanCost{}, err
		}
		if heur, err := baselines.BuildHeuristic(p.Cluster, p.Graph, p.Models); err == nil {
			seeds = append([]*core.Plan{heur}, seeds...)
		}
	}
	curPC, err := sess.Evaluate(cur)
	if err != nil {
		return nil, estimator.PlanCost{}, err
	}
	for _, seed := range seeds {
		if seed == nil {
			continue
		}
		if err := seed.Validate(); err != nil {
			continue
		}
		sr, err := sess.Evaluate(seed)
		if err != nil {
			continue
		}
		if sr.Cost < curPC.Cost {
			cur, curPC = seed.Clone(), sr
		}
	}
	return cur, curPC, nil
}

// mcmcSolver is the Metropolis–Hastings walker of §5.2. It runs
// max(1, Options.Chains) chains, concurrently when there are several, with
// periodic best-plan exchange at deterministic step boundaries. Each chain
// scores proposals through its own EvalSession, so chains share no mutable
// state between barriers. Chain 0 walks from Options.Seed, so a one-chain
// run is the sequential walk. The reduction is deterministic: lowest best
// cost wins, ties broken by chain index.
type mcmcSolver struct {
	// walk advances one chain to its round boundary; nil is
	// (*chainState).run. Tests substitute a reference walk.
	walk walkFunc
}

// walkFunc has the signature of (*chainState).run.
type walkFunc func(c *chainState, ctx context.Context, sp *space, opt Options, start time.Time, until int)

func (mcmcSolver) Name() string { return "mcmc" }

func (m mcmcSolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	walk := m.walk
	if walk == nil {
		walk = (*chainState).run
	}
	chains := max(1, opt.Chains)
	opt = opt.withDefaults()
	start := time.Now() //lint:realvet wallclock -- anchors the TimeLimit budget and Elapsed trace, never plan content
	e, p := prob.estimator(), prob.Plan

	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled before candidate enumeration: %w", err)
	}
	sp, err := buildSpace(e, p, opt)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled before the first proposal: %w", err)
	}
	// One incremental session per chain: sessions are single-goroutine.
	sessions := make([]*estimator.EvalSession, chains)
	for i := range sessions {
		sessions[i] = e.NewSession(nil)
	}

	cur, curPC, err := startState(sessions[0], e, p, sp, opt)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	curCost := curPC.Cost

	// Serialize the caller's progress callback across chains: each chain
	// streams points as it records them, so WithProgress observers see the
	// search converge live without taking part in plan selection.
	progress := opt.Progress
	if progress != nil && chains > 1 {
		var pmu sync.Mutex
		cb := opt.Progress
		progress = func(pt ProgressPoint) {
			pmu.Lock()
			defer pmu.Unlock()
			cb(pt)
		}
	}

	cs := make([]*chainState, chains)
	for i := range cs {
		seed := chainSeed(opt.Seed, i)
		cs[i] = &chainState{
			idx: i, seed: seed, rng: rand.New(rand.NewSource(seed)),
			cur: cur.Clone(), curCost: curCost, curOOM: curPC.OOM,
			best: cur.Clone(), bestCost: curCost, bestOOM: curPC.OOM,
			sess:     sessions[i],
			beta:     adaptiveBeta(curCost),
			progress: progress,
		}
	}
	//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
	initial := ProgressPoint{Elapsed: time.Since(start), Step: 0, BestCost: curCost}
	cs[0].record(initial)

	if chains == 1 {
		walk(cs[0], ctx, sp, opt, start, 0)
	} else {
		runExchanging(ctx, cs, sp, opt, start, walk)
	}

	// Cancellation is an error, not a truncated Solution: a caller that set
	// a deadline must not mistake a half-walked chain for a converged plan.
	// (Chains poll ctx every proposal, so this returns promptly.)
	for _, c := range cs {
		if c.cancelled {
			var steps int
			for _, cc := range cs {
				steps += cc.step
			}
			return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled after %d proposals: %w",
				steps, context.Cause(ctx))
		}
	}

	// Deterministic reduction: the best plan by beats, ties broken by
	// chain index.
	winner := cs[0]
	for _, c := range cs[1:] {
		if beats(c.bestOOM, c.bestCost, winner.bestOOM, winner.bestCost) {
			winner = c
		}
	}

	// The chains only ever tracked compact costs; materialize the winner's
	// full Result (timeline, call times) once. Its Cost is bit-identical to
	// the compact score the chain accepted on.
	winRes, hit, err := opt.Cache.lookup(e, winner.best)
	if err != nil {
		return Solution{}, Stats{}, err
	}

	st := Stats{SpaceLog10: sp.spaceLog10}
	st.countLookup(hit)
	for _, c := range cs {
		st.Steps += c.step
		st.Accepted += c.accepted
		st.BoundRejected += c.boundRejected
		st.Chains = append(st.Chains, ChainStats{
			Chain: c.idx, Seed: c.seed, Proposed: c.step,
			Accepted: c.accepted, BoundRejected: c.boundRejected, BestCost: c.bestCost,
		})
	}
	if chains == 1 {
		st.Trace = cs[0].trace
	} else {
		//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
		st.Trace = mergeTraces(cs, initial, winner.bestCost, time.Since(start))
	}
	return Solution{Plan: winner.best, Cost: winRes.Cost, Estimate: winRes}, st, nil
}

// runExchanging drives K chains in lockstep rounds of opt.ExchangeEvery
// steps: chains walk concurrently within a round, then meet at a barrier
// where laggards adopt the global best plan as their current state.
// Exchanges happen at deterministic step boundaries, so step-bounded runs
// remain reproducible regardless of goroutine scheduling.
func runExchanging(ctx context.Context, cs []*chainState,
	sp *space, opt Options, start time.Time, walk walkFunc) {
	for target := 0; ; {
		target += opt.ExchangeEvery
		var wg sync.WaitGroup
		live := 0
		for _, c := range cs {
			if c.done {
				continue
			}
			live++
			wg.Add(1)
			go func(c *chainState) {
				defer wg.Done()
				walk(c, ctx, sp, opt, start, target)
			}(c)
		}
		wg.Wait()
		if live == 0 {
			return
		}
		exchangeBest(cs)
	}
}

// exchangeBest is the barrier body: the globally best plan (by beats,
// lowest chain index on ties) replaces the current state of any chain doing
// worse.
func exchangeBest(cs []*chainState) {
	g := cs[0]
	for _, c := range cs[1:] {
		if beats(c.bestOOM, c.bestCost, g.bestOOM, g.bestCost) {
			g = c
		}
	}
	for _, c := range cs {
		if c.done || c == g {
			continue
		}
		if beats(g.bestOOM, g.bestCost, c.curOOM, c.curCost) {
			// The barrier is single-threaded, so adopting in place (no
			// clones) is safe: every chain goroutine has already joined.
			copyAssign(c.cur, g.best)
			c.curCost = g.bestCost
			c.curOOM = g.bestOOM
			// The adopted plan is the best this chain now knows: fold it
			// into the chain's best and rescale the temperature to the new
			// cost scale. Without the rescale a chain seeded at an
			// OOM-penalized cost keeps β ≈ 10/hugeCost ≈ 0 after adopting a
			// cheap plan and accepts nearly every uphill proposal for the
			// rest of the solve.
			if beats(g.bestOOM, g.bestCost, c.bestOOM, c.bestCost) {
				copyAssign(c.best, g.best)
				c.bestCost = g.bestCost
				c.bestOOM = g.bestOOM
				c.beta = adaptiveBeta(c.bestCost)
			}
		}
	}
}

// mergeTraces folds per-chain improvement points into one monotone
// global-best curve ordered by elapsed time. Points with equal elapsed
// times are tie-broken by (Step, BestCost, chain index) — a total order —
// so the merged curve is stable regardless of goroutine scheduling.
func mergeTraces(cs []*chainState, initial ProgressPoint, finalCost float64, elapsed time.Duration) []ProgressPoint {
	type chainPoint struct {
		pt    ProgressPoint
		chain int
	}
	var all []chainPoint
	for _, c := range cs {
		for _, pt := range c.trace {
			all = append(all, chainPoint{pt: pt, chain: c.idx})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pt.Elapsed != b.pt.Elapsed {
			return a.pt.Elapsed < b.pt.Elapsed
		}
		if a.pt.Step != b.pt.Step {
			return a.pt.Step < b.pt.Step
		}
		if a.pt.BestCost != b.pt.BestCost {
			return a.pt.BestCost < b.pt.BestCost
		}
		return a.chain < b.chain
	})
	out := []ProgressPoint{initial}
	best := initial.BestCost
	for _, cp := range all {
		if cp.pt.BestCost < best {
			best = cp.pt.BestCost
			out = append(out, cp.pt)
		}
	}
	if best > finalCost || len(out) == 1 {
		out = append(out, ProgressPoint{Elapsed: elapsed, Step: out[len(out)-1].Step, BestCost: finalCost})
	}
	return out
}
