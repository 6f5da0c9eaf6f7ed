package realhf

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/search"
)

// ClusterConfig configures a Planner session. Like ExperimentConfig it is a
// wire type (see wire.go): MarshalJSON emits the canonical defaults-applied
// form, the settings NewPlanner runs with, and UnmarshalJSON decodes
// strictly.
type ClusterConfig struct {
	// Nodes is the default number of 8-GPU hosts for requests that leave
	// ExperimentConfig.Nodes at 0. A request carrying its own Nodes value
	// may plan at any scale; the planner keys its caches by cluster shape.
	Nodes int `json:"nodes"`
	// GPUsPerNode is the default device count per host (0 = 8).
	GPUsPerNode int `json:"gpus_per_node"`
	// PlanCacheEntries bounds the LRU cache of searched plans (default 64).
	PlanCacheEntries int `json:"plan_cache_entries"`
	// ProblemCacheEntries bounds the LRU pool of per-problem cost caches
	// and estimators (default 8). A "problem" is a distinct (cluster,
	// workload, RPCs) combination; each owns one search.CostCache, the
	// plan-level estimate memo every request, re-attachment and Trainer
	// replan of that problem goes through.
	ProblemCacheEntries int `json:"problem_cache_entries"`
}

// Planner is a long-lived, concurrency-safe planning service — the one way
// to plan (the paper's @auto decorator is Plan). It owns an LRU pool of
// per-problem estimators and plan-level estimate memos (search.CostCache,
// one per distinct problem, shared across requests), and an LRU plan cache
// keyed by a canonical ExperimentConfig fingerprint, so a repeated or
// equivalent request is answered without re-running MCMC at all.
//
// Any number of goroutines may call Plan, Heuristic and LoadExperiment
// concurrently. Identical concurrent requests may each run a solve (the
// cache is at-least-once, not at-most-once), but step-bounded searches are
// deterministic, so every caller still receives the same plan fingerprint.
// Cached Estimates, traces and stats are shared and must be treated as
// immutable; returned Plans are private clones and safe to mutate.
type Planner struct {
	cc ClusterConfig

	mu       sync.Mutex
	problems *lruCache // problemKey -> *problemState
	plans    *lruCache // request fingerprint -> *planEntry

	planRequests, planHits, planMisses atomic.Int64
}

// planEntry is one plan-cache entry: the canonical experiment of a solved
// request and, once PlanCachedAnswer has served it, the encoded answer. The
// answer lives and dies with its entry, so eviction or replacement drops
// both together.
type planEntry struct {
	exp    *Experiment
	answer atomic.Pointer[[]byte]
}

// problemState is what the planner keeps per distinct problem: what its key
// fixes (the cluster, the lowered graph and the model cast, which every plan
// of the problem shares read-only), the estimator over the problem's
// role→coster mapping and the plan-level estimate memo every request for
// this problem shares. Solves store their winner's estimate in it; the
// traffic it answers is re-attachment (attach, which a Trainer runs twice
// per replan on the same incumbent) and repeated Heuristic or stored-plan
// estimates. (A CostCache is scoped to one problem/estimator pair — see its
// contract — which is exactly the granularity of this pool.)
type problemState struct {
	hw     hardware.Cluster
	graph  *dfg.Graph
	models map[dfg.Role]core.ModelSpec
	est    *estimator.Estimator
	cache  *search.CostCache
}

// withDefaults resolves the session defaults NewPlanner applies — the
// canonical form ClusterConfig.MarshalJSON emits.
func (cc ClusterConfig) withDefaults() ClusterConfig {
	if cc.PlanCacheEntries <= 0 {
		cc.PlanCacheEntries = 64
	}
	if cc.ProblemCacheEntries <= 0 {
		cc.ProblemCacheEntries = 8
	}
	return cc
}

// NewPlanner creates a planning session. The zero ClusterConfig is valid:
// requests then size the cluster themselves via ExperimentConfig.Nodes.
func NewPlanner(cc ClusterConfig) *Planner {
	cc = cc.withDefaults()
	return &Planner{
		cc:       cc,
		problems: newLRU(cc.ProblemCacheEntries),
		plans:    newLRU(cc.PlanCacheEntries),
	}
}

// AutoOption customizes one Plan request.
type AutoOption func(*autoOptions)

type autoOptions struct {
	progress   func(search.ProgressPoint)
	warmStarts []*core.Plan
	runOpts    *RunOptions
	// calib attaches profile-feedback calibration to the request's problem:
	// Trainer sessions set it directly when replanning, and
	// WithCalibrationFactors builds it from caller-supplied multipliers
	// (calibFactors, validated first). Either way it isolates the calibrated
	// problem (estimator, cost cache, plan-cache entries) from every
	// uncalibrated request via the calibration key.
	calib        *estimator.Calibration
	calibFactors map[string]float64
}

// validate rejects malformed per-request options — RunOptions bound via
// WithRunOptions (sharing RunOptions.Validate with the execution-time
// checks) and calibration factors bound via WithCalibrationFactors.
func (o *autoOptions) validate() error {
	if o.runOpts != nil {
		if err := o.runOpts.Validate(); err != nil {
			return err
		}
	}
	for name, f := range o.calibFactors {
		if err := estimator.CheckFactor(name, f); err != nil {
			return fmt.Errorf("realhf: %w: %w", err, ErrInvalidConfig)
		}
	}
	return nil
}

// finish resolves derived option state after validation: caller-supplied
// calibration factors become the request's estimator.Calibration. (Unit-only
// factor maps canonicalize to the uncalibrated base, exactly like a Trainer
// whose feedback never drifted.)
func (o *autoOptions) finish() {
	if o.calib == nil && len(o.calibFactors) > 0 {
		o.calib = estimator.NewCalibration(o.calibFactors)
	}
}

// requestKey is the plan-cache (and coalescing) key for one prepared
// request: the canonical config fingerprint extended with the calibration
// and warm-start tokens, appended into one buffer.
func (o *autoOptions) requestKey(cfg ExperimentConfig) string {
	b := cfg.appendFingerprint(make([]byte, 0, keyBufSize))
	b = append(b, calibToken(o.calib)...)
	b = append(b, warmStartKey(o.warmStarts)...)
	return string(b)
}

// withCalibration routes a Trainer's profile feedback into a plan request.
func withCalibration(c *estimator.Calibration) AutoOption {
	return func(o *autoOptions) { o.calib = c }
}

// WithProgress streams the search's convergence (periodic samples and every
// best-cost improvement) to fn while Plan runs. A multi-chain search
// serializes invocations; fn runs on the search's critical path and must be
// fast. Plan-cache hits skip the search and emit no points.
func WithProgress(fn func(search.ProgressPoint)) AutoOption {
	return func(o *autoOptions) { o.progress = fn }
}

// WithWarmStart seeds the search with previously found plans (e.g. loaded
// via Planner.LoadExperiment from an earlier session): the solver starts from the
// cheapest of the warm starts and its own greedy/heuristic seeds. Warm
// starts participate in the plan-cache key, so requests with different
// seeds never alias.
func WithWarmStart(plans ...*core.Plan) AutoOption {
	return func(o *autoOptions) { o.warmStarts = append(o.warmStarts, plans...) }
}

// WithRunOptions binds run options to the returned Experiment: its Run()
// executes under them instead of DefaultRunOptions. Run options do not
// affect planning and are not part of the plan-cache key.
func WithRunOptions(opts RunOptions) AutoOption {
	return func(o *autoOptions) { o.runOpts = &opts }
}

// WithCalibrationFactors layers per-call duration multipliers (observed /
// predicted, e.g. exported from TrainerStats.CalibrationFactors or a
// tenant's own profiling) over the pure cost model for this request. The
// factors join the problem and plan-cache keys, so calibrated requests own
// their own estimator, cost cache and plan-cache entries and can never
// poison the uncalibrated ones — the isolation contract multi-tenant
// frontends (internal/serve) rely on. Factors must be positive and finite;
// Plan rejects anything else with a wrapped ErrInvalidConfig. An empty or
// all-unit map is the uncalibrated base and shares its caches.
func WithCalibrationFactors(factors map[string]float64) AutoOption {
	return func(o *autoOptions) {
		if len(factors) == 0 {
			return
		}
		if o.calibFactors == nil {
			o.calibFactors = make(map[string]float64, len(factors))
		}
		for name, f := range factors {
			o.calibFactors[name] = f
		}
	}
}

// merge fills request fields the caller left at zero from the session
// defaults.
func (p *Planner) merge(cfg ExperimentConfig) ExperimentConfig {
	if cfg.Nodes == 0 {
		cfg.Nodes = p.cc.Nodes
	}
	if cfg.GPUsPerNode == 0 {
		cfg.GPUsPerNode = p.cc.GPUsPerNode
	}
	return cfg
}

// Canonicalize returns the session's defaults-applied view of cfg: zero
// fields are filled from the ClusterConfig and the package defaults, exactly
// as Plan would before solving. Two configs with equal canonical forms are
// one request to this session — Canonicalize(cfg).Fingerprint() is the key
// the plan cache (and any coalescing frontend) dedupes on. Canonicalize is
// idempotent and does not validate; Plan still rejects a canonicalized but
// malformed config.
func (p *Planner) Canonicalize(cfg ExperimentConfig) ExperimentConfig {
	return p.merge(cfg).withDefaults()
}

// prepare folds options into the config, applies the session defaults and
// validates both: the one prologue of Plan, PlanCached, Heuristic,
// LoadExperiment and a Trainer's open.
func (p *Planner) prepare(cfg ExperimentConfig, opts []AutoOption) (ExperimentConfig, *autoOptions, error) {
	o := &autoOptions{}
	for _, fn := range opts {
		fn(o)
	}
	cfg = p.merge(cfg).withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, err
	}
	if err := o.validate(); err != nil {
		return cfg, nil, err
	}
	o.finish()
	return cfg, o, nil
}

// Plan searches for an efficient execution plan for cfg — the analogue of
// the paper's @auto decorator. The context is honored for the whole request:
// cancellation or a deadline aborts the solver mid-search with a wrapped
// context error. An equivalent step-bounded config planned before (same
// canonical fingerprint after defaults, same warm starts) is answered from
// the plan cache without running a solver; the returned Experiment then has
// Cached == true and carries the original solve's estimate, trace and
// stats. Time-bounded searches (SearchTime with SearchSteps == 0) are
// nondeterministic and bypass the plan cache.
func (p *Planner) Plan(ctx context.Context, cfg ExperimentConfig, opts ...AutoOption) (*Experiment, error) {
	cfg, o, err := p.prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("realhf: plan request cancelled: %w: %w", ErrSolveCanceled, err)
	}

	cacheable := cfg.SearchSteps > 0
	key := o.requestKey(cfg)
	p.planRequests.Add(1)
	if cacheable {
		if ent, ok := p.cachedPlan(key); ok {
			p.planHits.Add(1)
			return ent.exp.instantiate(o.runOpts), nil
		}
	}

	solver, err := search.New(cfg.Solver)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrInvalidConfig)
	}
	ps, err := p.problemFor(cfg, o.calib)
	if err != nil {
		return nil, err
	}
	plan := core.NewPlan(ps.hw, ps.graph, ps.models)
	var seeds []*core.Plan
	if heur, err := baselines.BuildHeuristic(ps.hw, ps.graph, ps.models); err == nil {
		seeds = append(seeds, heur)
	}
	seeds = append(seeds, o.warmStarts...)
	sol, stats, err := solver.Solve(ctx,
		search.Problem{Est: ps.est, Plan: plan, Overlap: cfg.PlanForOverlap},
		search.Options{
			MaxSteps:       cfg.SearchSteps,
			TimeLimit:      cfg.SearchTime,
			Seed:           cfg.Seed,
			Chains:         cfg.SearchParallelism,
			OffloadSearch:  cfg.OffloadSearch,
			SeedCandidates: seeds,
			Cache:          ps.cache,
			Progress:       o.progress,
		})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("realhf: %w: %w", ErrSolveCanceled, err)
		}
		return nil, err
	}
	p.planMisses.Add(1) // a completed solve, cacheable or not
	exp := &Experiment{
		Config: cfg, Cluster: ps.hw, Plan: sol.Plan,
		Estimate: sol.Estimate, SearchStats: stats,
		runOpts: o.runOpts,
	}
	if cacheable {
		p.storePlan(key, exp)
	}
	return exp, nil
}

// PlanCached answers cfg from the session's plan cache without ever running
// a solver: it returns the cached experiment and true when an equivalent
// deterministic request (same canonical fingerprint, calibration and warm
// starts) was solved before, and (nil, false) otherwise — including for
// malformed configs and time-bounded searches, which Plan will then reject
// or solve respectively. A probe hit counts as a request and a cache hit in
// PlannerStats; a miss counts as nothing (the Plan call that follows it
// does the counting). It is the admission-free fast path that lets cached
// requests skip the queue behind running solves; the plan service takes it
// through PlanCachedAnswer.
func (p *Planner) PlanCached(cfg ExperimentConfig, opts ...AutoOption) (*Experiment, bool) {
	ent, o, _ := p.cachedEntry(cfg, opts)
	if ent == nil {
		return nil, false
	}
	return ent.exp.instantiate(o.runOpts), true
}

// PlanCachedAnswer is PlanCached for a frontend that answers a hit with
// bytes derived from the cached experiment alone. On a hit it returns
// encode's result and true. The first successful encode is stored on the
// plan-cache entry, and later hits on that entry return the stored bytes
// without cloning the plan or calling encode again. The result is nil and
// false when PlanCached would miss; a hit counts in PlannerStats exactly as
// a PlanCached hit does.
//
// A config (or option) that fails validation returns nil, false and the
// error Plan would return for it, wrapping ErrInvalidConfig, so a frontend
// can answer it without admitting a solve; it counts as nothing. Only the
// checks that need no dataflow graph run here, because a hit must not pay
// for building one: a config whose error only the graph reveals (an
// unknown model type, a repeated call name) misses with a nil error, and
// Plan rejects it.
//
// encode receives a read-only view of the canonical experiment (Cached set,
// no run options, its Plan shared with the cache), so it must neither
// mutate nor retain it, and its bytes must depend on the experiment alone:
// the stored answer is replayed to every later request for the entry. A
// failed encode stores nothing and its error is returned with the hit, so
// a failure recurs on every repeat. Concurrent first hits may each encode;
// all of them return the bytes stored first. The plan service
// (internal/serve) is the caller this exists for.
func (p *Planner) PlanCachedAnswer(cfg ExperimentConfig, encode func(*Experiment) ([]byte, error), opts ...AutoOption) ([]byte, bool, error) {
	ent, _, err := p.cachedEntry(cfg, opts)
	if ent == nil {
		return nil, false, err
	}
	if answer := ent.answer.Load(); answer != nil {
		return *answer, true, nil
	}
	view := *ent.exp
	view.Cached = true
	answer, err := encode(&view)
	if err != nil {
		return nil, true, err
	}
	ent.answer.CompareAndSwap(nil, &answer)
	return *ent.answer.Load(), true, nil
}

// cachedEntry is the shared prologue of PlanCached and PlanCachedAnswer:
// prepare the request, look its key up in the plan cache, and count a hit.
// A nil entry is a miss; the error is prepare's validation failure, if any.
func (p *Planner) cachedEntry(cfg ExperimentConfig, opts []AutoOption) (*planEntry, *autoOptions, error) {
	cfg, o, err := p.prepare(cfg, opts)
	if err != nil || cfg.SearchSteps <= 0 {
		return nil, nil, err
	}
	ent, ok := p.cachedPlan(o.requestKey(cfg))
	if !ok {
		return nil, nil, nil
	}
	p.planRequests.Add(1)
	p.planHits.Add(1)
	return ent, o, nil
}

// Heuristic builds cfg's experiment with the pre-training-style symmetric
// 3D plan instead of a searched one (the paper's REAL-Heuristic baseline),
// estimated through the session's per-problem estimator and cost cache, so
// a repeated Heuristic for the same problem is answered from the cache.
// No search runs, so the config's search knobs (Solver, SearchSteps,
// SearchParallelism, OffloadSearch, ...) are ignored, and the only
// applicable option is WithRunOptions: WithProgress, WithWarmStart and
// WithCalibrationFactors are an error rather than a silent no-op. (To
// estimate the heuristic plan under the overlapped semantics, set
// cfg.PlanForOverlap — it selects the cost model, not the search.)
func (p *Planner) Heuristic(cfg ExperimentConfig, opts ...AutoOption) (*Experiment, error) {
	cfg, o, err := p.prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if o.progress != nil || o.warmStarts != nil || o.calib != nil || o.calibFactors != nil {
		return nil, fmt.Errorf("realhf: Heuristic runs no search and accepts only WithRunOptions: %w", ErrInvalidConfig)
	}
	ps, err := p.problemFor(cfg, nil)
	if err != nil {
		return nil, err
	}
	plan, err := baselines.BuildHeuristic(ps.hw, ps.graph, ps.models)
	if err != nil {
		return nil, err
	}
	res, err := ps.cache.Evaluate(ps.est, plan)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Config: cfg, Cluster: ps.hw, Plan: plan, Estimate: res, runOpts: o.runOpts,
	}, nil
}

// LoadExperiment rebuilds a runnable Experiment from a plan saved by
// Experiment.SavePlan (or realsearch -save): cfg reconstructs the dataflow
// graph and cost model, the file supplies the assignments, and the session
// estimator re-derives the estimate. The stored cluster shape and model
// cast must agree with cfg. LoadExperimentBytes is the in-memory twin for
// plans carried over the wire instead of the filesystem.
func (p *Planner) LoadExperiment(path string, cfg ExperimentConfig) (*Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("realhf: read plan: %w", err)
	}
	return p.loadExperiment(data, path, cfg)
}

// loadExperiment rebuilds an Experiment from serialized plan bytes; label
// names the source (a path, or "bytes") in errors, after "plan ".
func (p *Planner) loadExperiment(data []byte, label string, cfg ExperimentConfig) (*Experiment, error) {
	cfg, _, err := p.prepare(cfg, nil)
	if err != nil {
		return nil, err
	}
	plan, res, err := p.loadPlan(data, "plan "+label, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Experiment{Config: cfg, Cluster: plan.Cluster, Plan: plan, Estimate: res}, nil
}

// loadPlan decodes a stored plan (a saved plan file, plan bytes off the
// wire, a checkpoint's incumbent) for cfg's problem: the stored cluster
// shape and model cast must agree with cfg, and the assignments are decoded
// onto and re-attached to the graph and models of cfg's problem entry. Every
// rejection wraps ErrInvalidConfig — a malformed or invalid stored plan (including a legacy
// offload_when_idle mark on a trainable role) can never succeed on retry, so
// serve maps it to HTTP 400. label names the source in errors.
func (p *Planner) loadPlan(data []byte, label string, cfg ExperimentConfig, calib *estimator.Calibration) (*core.Plan, *estimator.Result, error) {
	ps, err := p.problemFor(cfg, calib)
	if err != nil {
		return nil, nil, err
	}
	loaded, err := core.UnmarshalPlan(data, ps.graph)
	if err != nil {
		return nil, nil, fmt.Errorf("realhf: %s: %w: %w", label, err, ErrInvalidConfig)
	}
	if loaded.Cluster.Nodes != cfg.Nodes || loaded.Cluster.GPUsPerNode != cfg.GPUsPerNode {
		return nil, nil, fmt.Errorf("realhf: %s was saved for a %d-node×%d-GPU cluster, config describes %d×%d: %w",
			label, loaded.Cluster.Nodes, loaded.Cluster.GPUsPerNode, cfg.Nodes, cfg.GPUsPerNode, ErrInvalidConfig)
	}
	// Check the cast in the roles' first-appearance order, so a plan that
	// disagrees about several models is always rejected naming the same one.
	for _, home := range ps.graph.Homes() {
		lm, ok := loaded.Models[home.Role]
		if !ok || lm.Cfg.Name != ps.models[home.Role].Cfg.Name {
			return nil, nil, fmt.Errorf("realhf: %s disagrees with the config about model %q: %w", label, home.Role, ErrInvalidConfig)
		}
	}
	plan, res, err := p.attach(cfg, calib, loaded.Assign)
	if err != nil {
		return nil, nil, fmt.Errorf("realhf: %s: %w: %w", label, err, ErrInvalidConfig)
	}
	return plan, res, nil
}

// attach builds cfg's plan — its problem's cluster, graph and models —
// carrying the given assignments, validates it and estimates it through the
// session caches under calib. It is the one re-attachment path: stored plans, a
// checkpoint's incumbent and a Trainer's incumbent on a moved workload all
// return to a problem through it, so the estimator and runtime see one
// consistent problem.
func (p *Planner) attach(cfg ExperimentConfig, calib *estimator.Calibration, assign map[string]core.Assignment) (*core.Plan, *estimator.Result, error) {
	ps, err := p.problemFor(cfg, calib)
	if err != nil {
		return nil, nil, err
	}
	plan := core.NewPlan(ps.hw, ps.graph, ps.models)
	for name, a := range assign {
		plan.Assign[name] = a
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	res, err := ps.cache.Evaluate(ps.est, plan)
	if err != nil {
		return nil, nil, err
	}
	return plan, res, nil
}

// PlannerStats reports a session's cache effectiveness. It is also a wire
// type: the plan service's /v1/stats endpoint returns it alongside the
// server's own counters.
type PlannerStats struct {
	// PlanRequests counts Plan calls that passed validation (including
	// PlanCached and PlanCachedAnswer probe hits).
	PlanRequests int64 `json:"plan_requests"`
	// PlanCacheHits counts requests answered from the plan cache without
	// running a solver; PlanCacheMisses counts completed solves. Requests
	// that fail (bad config, unknown solver, cancellation) count as
	// neither.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// Problems is the number of live per-problem cost caches.
	Problems int `json:"problems"`
	// CostCacheHits and CostCacheMisses aggregate the plan-level
	// cost-cache counters across the live problem caches (entries evicted
	// from the problem pool drop out of the totals). They count each
	// solve's final-estimate lookup and every re-estimate of a known plan:
	// re-attachment (a Trainer's replans, LoadExperiment) and Heuristic.
	CostCacheHits   int64 `json:"cost_cache_hits"`
	CostCacheMisses int64 `json:"cost_cache_misses"`
}

// Stats snapshots the session's counters.
func (p *Planner) Stats() PlannerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PlannerStats{
		PlanRequests:    p.planRequests.Load(),
		PlanCacheHits:   p.planHits.Load(),
		PlanCacheMisses: p.planMisses.Load(),
		Problems:        p.problems.len(),
	}
	p.problems.each(func(v any) {
		ps := v.(*problemState)
		st.CostCacheHits += ps.cache.Hits()
		st.CostCacheMisses += ps.cache.Misses()
	})
	return st
}

// cachedPlan looks up the plan-cache entry for a request key.
func (p *Planner) cachedPlan(key string) (*planEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.plans.get(key)
	if !ok {
		return nil, false
	}
	return v.(*planEntry), true
}

// storePlan caches a canonical copy of a solved experiment in a new entry,
// which replaces any entry (and stored answer) under the same key. The plan
// is cloned on the way in and again on the way out (instantiate), so
// neither the original caller nor later ones can mutate the cached
// assignments.
func (p *Planner) storePlan(key string, exp *Experiment) {
	canon := *exp
	canon.Plan = exp.Plan.Clone()
	canon.runOpts = nil
	p.mu.Lock()
	p.plans.add(key, &planEntry{exp: &canon})
	p.mu.Unlock()
}

// instantiate derives a per-request Experiment from a cached canonical one.
func (e *Experiment) instantiate(runOpts *RunOptions) *Experiment {
	out := *e
	out.Plan = e.Plan.Clone()
	out.Cached = true
	out.runOpts = runOpts
	return &out
}

// cluster is the hardware the config plans on: the default cluster at the
// config's shape.
func (c ExperimentConfig) cluster() hardware.Cluster {
	hw := hardware.DefaultCluster(c.Nodes)
	hw.GPUsPerNode = c.GPUsPerNode
	return hw
}

// problemFor resolves the session pool's entry for cfg's problem, lowering
// the graph and building the model cast and estimator only on a pool miss:
// the problem key fixes all three. A non-nil calibration selects (or
// creates) the problem's calibrated twin: the calibration key joins the
// pool key, so a calibrated problem owns its own graph, estimator and
// search.CostCache and can never poison the uncalibrated (or
// overlap-semantics) entries a default request reads.
func (p *Planner) problemFor(cfg ExperimentConfig, calib *estimator.Calibration) (*problemState, error) {
	key := cfg.problemKey() + calibToken(calib)
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.problems.get(key); ok {
		return v.(*problemState), nil
	}
	g, models, err := buildGraph(cfg)
	if err != nil {
		return nil, err
	}
	hw := cfg.cluster()
	est := estimator.NewOracle(hw, models, true)
	// The problem's cost semantics follow the config: with PlanForOverlap
	// set, every estimate this problem produces (search, Heuristic,
	// LoadExperiment) simulates the overlapped engine. problemKey encodes
	// the flag, so the serialized twin keeps its own estimator and cache.
	est.OverlapComm = cfg.PlanForOverlap
	est.Calib = calib
	ps := &problemState{hw: hw, graph: g, models: models, est: est, cache: search.NewCostCache()}
	p.problems.add(key, ps)
	return ps, nil
}

// calibToken folds a calibration into a problem or plan-cache key ("" for
// the uncalibrated base, so every existing key is unchanged).
func calibToken(c *estimator.Calibration) string {
	if k := c.Key(); k != "" {
		return ";calib=" + k
	}
	return ""
}

// --- canonical request keys ---

// keyBufSize is the starting capacity of a key buffer: room for the key of
// a six-call PPO workflow, so the common key is appended without growing.
const keyBufSize = 512

// appendToken appends a length-prefixed string, so user-chosen names can
// never alias two different configs onto one cache key.
func appendToken(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ',')
}

// appendInts appends each value in decimal, sep-terminated.
func appendInts(b []byte, sep byte, vs ...int) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, sep)
	}
	return b
}

// problemKey canonically encodes everything that defines the problem —
// cluster shape, workload, cost semantics and the full RPC list — but none
// of the search knobs. Equal keys mean one graph, one estimator, one cost
// cache. PlanForOverlap is part of the key because it selects the
// estimator's schedule semantics: serialized and overlap-aware solves of
// one workload must never share a cost cache, or each would poison the
// other's plan-level makespans. withDefaults must have been applied.
func (c ExperimentConfig) problemKey() string {
	return string(c.appendProblemKey(make([]byte, 0, keyBufSize)))
}

// appendProblemKey appends problemKey's bytes to b.
func (c ExperimentConfig) appendProblemKey(b []byte) []byte {
	b = append(b, "cluster="...)
	b = strconv.AppendInt(b, int64(c.Nodes), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(c.GPUsPerNode), 10)
	b = append(b, ";work="...)
	b = appendInts(b, '.', c.BatchSize, c.PromptLen, c.GenLen, c.MiniBatches)
	b = strconv.AppendInt(b, int64(c.Iterations), 10)
	b = append(b, ";overlap="...)
	b = strconv.AppendBool(b, c.PlanForOverlap)
	b = append(b, ";offload="...)
	b = strconv.AppendBool(b, c.OffloadSearch)
	b = append(b, ";rpcs="...)
	for _, r := range c.RPCs {
		// Key the per-call fields as the graph reads them, so equivalent
		// spellings (BatchScale 0 and 1, MiniBatches on a non-train call or
		// equal to the experiment's) never split the caches for one workload.
		b = append(b, '[')
		b = appendInts(b, '.', int(r.InterfaceType), r.batchScale())
		b = strconv.AppendInt(b, int64(r.miniBatches(c.MiniBatches)), 10)
		b = append(b, ';')
		b = appendToken(b, r.Name)
		b = appendToken(b, r.ModelName)
		b = appendToken(b, r.ModelType)
		b = append(b, "in;"...)
		for _, s := range r.InputData {
			b = appendToken(b, s)
		}
		b = append(b, "out;"...)
		for _, s := range r.OutputData {
			b = appendToken(b, s)
		}
		b = append(b, ']')
	}
	return b
}

// fingerprint extends problemKey with the search knobs: two configs with
// equal fingerprints request the same deterministic solve, which is what
// the plan cache keys on. PlanForOverlap reaches the fingerprint through
// problemKey, so a serialized and an overlap-aware request never alias in
// the plan cache either. withDefaults must have been applied.
func (c ExperimentConfig) fingerprint() string {
	return string(c.appendFingerprint(make([]byte, 0, keyBufSize)))
}

// appendFingerprint appends fingerprint's bytes to b: the problem key,
// extended in the same buffer.
func (c ExperimentConfig) appendFingerprint(b []byte) []byte {
	b = c.appendProblemKey(b)
	b = append(b, ";solver="...)
	b = append(b, c.Solver...)
	b = append(b, ";steps="...)
	b = strconv.AppendInt(b, int64(c.SearchSteps), 10)
	b = append(b, ";time="...)
	b = strconv.AppendInt(b, int64(c.SearchTime), 10)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, c.Seed, 10)
	b = append(b, ";chains="...)
	return strconv.AppendInt(b, int64(c.SearchParallelism), 10)
}

// warmStartKey folds WithWarmStart plans into the request key.
func warmStartKey(plans []*core.Plan) string {
	if len(plans) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(";warm=")
	for _, p := range plans {
		if p == nil {
			continue
		}
		b.WriteString(p.Fingerprint())
		b.WriteString("+")
	}
	return b.String()
}

// --- minimal LRU, guarded by the planner mutex ---

type lruCache struct {
	capacity int
	ll       *list.List
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int { return c.ll.Len() }

func (c *lruCache) each(f func(any)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruEntry).val)
	}
}
