package search

import (
	"sync"
	"sync/atomic"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// CostCache is a plan-level memo of full estimator.Results, keyed by the
// plan's canonical Fingerprint plus the estimator's schedule semantics
// (OverlapComm) and profile calibration (CalibrationKey), so serialized,
// overlap-aware and calibrated estimates of one plan never alias.
//
// The search walk never reads it: every chain scores its proposals through
// its own estimator.EvalSession. A solve consults the cache once, for its
// winner's final estimate, and that lookup is how the winning plan reaches
// a longer-lived owner's memo. The Planner keeps one cache per problem, and
// the traffic it pays for is re-attachment: a Trainer estimates its
// incumbent plan through it twice per replan, and a reloaded stored plan
// or a repeated heuristic is answered without re-simulating.
//
// The cache holds at most costCacheEntries Results: inserting into a full
// cache clears it first, so a problem that stays in the Planner's pool
// across many solves keeps a bounded memo.
//
// Cached Results are shared pointers and must be treated as immutable.
// A cache is scoped to one (problem, estimator) pair: never share one
// across different problems or estimators.
type CostCache struct {
	mu    sync.RWMutex
	plans map[string]*estimator.Result

	hits, misses atomic.Int64
}

// costCacheEntries caps a CostCache. The measured uses stay below it (a
// Trainer campaign's solves plus its re-attached plans; a served problem
// re-solved at up to 40 seeds), so for them the clear never happens.
const costCacheEntries = 64

// NewCostCache allocates an empty cache.
func NewCostCache() *CostCache {
	return &CostCache{plans: make(map[string]*estimator.Result)}
}

// Hits and Misses report the cache's lookup counters. The Planner sums
// them across its problem pool (PlannerStats.CostCacheHits and
// CostCacheMisses).
func (c *CostCache) Hits() int64   { return c.hits.Load() }
func (c *CostCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached plan evaluations.
func (c *CostCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// Evaluate returns the memoized estimate of the plan, computing and caching
// it on miss. The Planner estimates every known plan of a problem through
// it, so a solve's winner, a re-attached incumbent and a heuristic plan
// are simulated once per problem.
func (c *CostCache) Evaluate(e *estimator.Estimator, p *core.Plan) (*estimator.Result, error) {
	r, _, err := c.lookup(e, p)
	return r, err
}

// lookup is Evaluate that also reports whether the cache answered, so a
// solve's Stats count its own lookup: the cache's counters also move with
// every concurrent solve that shares it. A nil cache evaluates
// directly and reports a miss. Concurrent callers may race to fill the same
// key; the evaluation is deterministic, so either result is identical and
// the last write wins. Errors (e.g. unassigned calls) are not cached.
func (c *CostCache) lookup(e *estimator.Estimator, p *core.Plan) (*estimator.Result, bool, error) {
	if c == nil {
		r, err := e.Evaluate(p)
		return r, false, err
	}
	// The simulated makespan depends on the schedule semantics and
	// calibration rescales call durations, so both prefix the key.
	key := p.Fingerprint()
	if e.OverlapComm {
		key = "overlap|" + key
	}
	if ck := e.CalibrationKey(); ck != "" {
		key = "calib=" + ck + "|" + key
	}
	c.mu.RLock()
	r, ok := c.plans[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return r, true, nil
	}
	c.misses.Add(1)
	r, err := e.Evaluate(p)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if _, ok := c.plans[key]; !ok && len(c.plans) >= costCacheEntries {
		clear(c.plans)
	}
	c.plans[key] = r
	c.mu.Unlock()
	return r, false, nil
}
