package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"realhf"
	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/search"
	"realhf/internal/serve"
)

// This file holds the traced run's replays: calls into a layer's public
// functions on an operation's own input, each in its own span, for layers
// whose real work happens where the benchmark cannot time it.

// replayServedHit replays the hit path of a served request: the wire
// codec, canonicalization and fingerprinting, the plan-cache lookup and
// clone, plan marshaling and response encoding. It returns the encoded
// response size, and whether the plan cache answered.
func replayServedHit(o *op, p *realhf.Planner, req *serve.PlanRequest) (respBytes int, hit bool) {
	var body []byte
	o.time("wire.request_encode", func() { body, _ = json.Marshal(req) })
	var dec serve.PlanRequest
	o.time("wire.request_decode", func() {
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		_ = d.Decode(&dec) // the same bytes decoded fine on the server
	})
	var canon realhf.ExperimentConfig
	o.time("planner.canonicalize", func() { canon = p.Canonicalize(dec.Config) })
	o.time("planner.fingerprint", func() { _ = canon.Fingerprint() })
	var opts []realhf.AutoOption
	if len(dec.Calibration) > 0 {
		opts = append(opts, realhf.WithCalibrationFactors(dec.Calibration))
	}
	var exp *realhf.Experiment
	o.time("planner.plan_cached", func() { exp, hit = p.PlanCached(canon, opts...) })
	if !hit {
		return 0, false
	}
	replayPlan(o, exp.Plan)
	var planBytes []byte
	o.time("wire.plan_marshal", func() { planBytes, _ = exp.MarshalPlan() })
	resp := serve.PlanResponse{Config: exp.Config, Plan: planBytes, Cached: true}
	o.time("core.plan_fingerprint", func() { resp.Fingerprint = exp.Plan.Fingerprint() })
	resp.Estimate = serve.Estimate{TimeCostSeconds: exp.Estimate.TimeCost, Cost: exp.Estimate.Cost,
		MaxMemBytes: exp.Estimate.MaxMem, CallTimes: exp.Estimate.CallTimes}
	var out bytes.Buffer
	o.time("wire.response_encode", func() { _ = json.NewEncoder(&out).Encode(&resp) })
	return out.Len(), true
}

// replayPlan times the plan-object operations every served hit and every
// solve pays for: clone and validation.
func replayPlan(o *op, plan *core.Plan) {
	o.time("core.plan_clone", func() { _ = plan.Clone() })
	o.time("core.plan_validate", func() { _ = plan.Validate() })
}

// estimatorFor builds the estimator a Planner would build for the plan's
// problem, timing each cost-model (oracle) construction.
func estimatorFor(o *op, plan *core.Plan, overlap bool) *estimator.Estimator {
	costers := map[dfg.Role]gpumodel.ModelCoster{}
	for _, role := range plan.Graph.Roles() {
		ms := plan.Models[role]
		o.time("gpumodel.oracle_build", func() { costers[role] = gpumodel.NewOracle(plan.Cluster, ms.Cfg) })
	}
	est := estimator.New(plan.Cluster, costers)
	est.OverlapComm = overlap
	return est
}

// estimateStats accumulates the incremental evaluator's recost share.
type estimateStats struct {
	lookups, recosts int64
}

func (s *estimateStats) add(o estimateStats) {
	s.lookups += o.lookups
	s.recosts += o.recosts
}

func (s *estimateStats) ratio() float64 {
	if s.lookups == 0 {
		return 0
	}
	return float64(s.recosts) / float64(s.lookups)
}

// replayEstimate times the cost model on a plan: each call's analytic cost
// (gpumodel), a full Estimator.Evaluate, and, when st is non-nil, one
// incremental EvalSession evaluation after moving a single call to the
// REAL-Heuristic plan's assignment (the shape of one search proposal).
func replayEstimate(o *op, est *estimator.Estimator, plan *core.Plan, st *estimateStats) {
	seen := map[string]bool{}
	for _, n := range plan.Graph.Nodes {
		if seen[n.Name] {
			continue
		}
		seen[n.Name] = true
		spec, err := estimator.CallSpecOf(plan, n)
		if err != nil {
			continue
		}
		o.time("gpumodel.assemble_call", func() { _ = gpumodel.AssembleCall(est.Costers[n.Role], est.Comm, spec) })
	}
	o.time("estimator.evaluate", func() { _, _ = est.Evaluate(plan) })
	if st == nil {
		return
	}
	alt, err := baselines.BuildHeuristic(plan.Cluster, plan.Graph, plan.Models)
	if err != nil {
		return
	}
	mutated := plan.Clone()
	for _, name := range plan.CallNames() {
		if a := alt.Assign[name]; a != plan.Assign[name] {
			mutated.Assign[name] = a
			break
		}
	}
	sess := est.NewSession(nil)
	o.time("estimator.session_build", func() { _, _ = sess.Evaluate(plan) })
	before := sess.Stats()
	o.time("estimator.session_eval", func() { _, _ = sess.Evaluate(mutated) })
	after := sess.Stats()
	st.lookups += after.NodeLookups - before.NodeLookups
	st.recosts += after.NodeRecosts - before.NodeRecosts
}

// replaySolve re-runs a planner solve directly through the solver registry
// on the same problem the Planner built (the solved plan's cluster, graph
// and model cast, a fresh cost cache, the REAL-Heuristic seed plan) and
// returns the solution's cost, the solver's counters and the solve's wall
// time.
func replaySolve(o *op, plan *core.Plan, cfg realhf.ExperimentConfig) (float64, search.Stats, time.Duration, error) {
	est := estimatorFor(o, plan, cfg.PlanForOverlap)
	tmpl := core.NewPlan(plan.Cluster, plan.Graph, plan.Models)
	var seeds []*core.Plan
	if h, err := baselines.BuildHeuristic(plan.Cluster, plan.Graph, plan.Models); err == nil {
		seeds = append(seeds, h)
	}
	solver, err := search.New(cfg.Solver)
	if err != nil {
		return 0, search.Stats{}, 0, err
	}
	var (
		sol  search.Solution
		st   search.Stats
		wall time.Duration
	)
	o.time("search.solve", func() {
		start := time.Now()
		defer func() { wall = time.Since(start) }()
		sol, st, err = solver.Solve(context.Background(),
			search.Problem{Est: est, Plan: tmpl, Overlap: cfg.PlanForOverlap},
			search.Options{
				MaxSteps: cfg.SearchSteps, Seed: cfg.Seed, Chains: cfg.SearchParallelism,
				SeedCandidates: seeds, Cache: search.NewCostCache(),
			})
	})
	if err != nil {
		return 0, st, wall, err
	}
	return sol.Cost, st, wall, nil
}

// searchAcc accumulates solver counters over replayed solves.
type searchAcc struct {
	steps, accepted            int
	solveNs                    int64
	cacheHits, cacheLookups    int64
	targetMisses, targetSolves int
}

func (a *searchAcc) add(st search.Stats, wall time.Duration) {
	a.steps += st.Steps
	a.accepted += st.Accepted
	a.solveNs += int64(wall)
	a.cacheHits += st.CacheHits
	a.cacheLookups += st.CacheHits + st.CacheMisses
}

func (a *searchAcc) fill(out map[string]value) {
	out["search.steps_per_s"] = value(ratio(float64(a.steps), float64(a.solveNs)/1e9))
	out["search.accept_ratio"] = value(ratio(float64(a.accepted), float64(a.steps)))
	out["search.cache_hit_ratio"] = value(ratio(float64(a.cacheHits), float64(a.cacheLookups)))
	out["search.target_miss_frac"] = value(ratio(float64(a.targetMisses), float64(a.targetSolves)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
