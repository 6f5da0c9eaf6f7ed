package search

import (
	"sort"
	"sync"
	"sync/atomic"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// CostCache memoizes the estimator at two granularities, safely shared by
// concurrent search chains:
//
//   - plan level: the full estimator.Result keyed by the plan's canonical
//     Fingerprint plus the estimator's schedule semantics (OverlapComm) and
//     profile calibration (CalibrationKey), so a plan revisited by any chain
//     is never re-simulated, and serialized, overlap-aware and calibrated
//     solves of one problem can share a cache without poisoning each
//     other's entries;
//   - node level: the uncalibrated duration of each augmented-graph node
//     keyed by its estimator.NodeSig, the shared fallback of every chain's
//     incremental session, so even a brand-new plan only pays for the
//     assignments it actually changed.
//
// Cached Results are shared pointers and must be treated as immutable.
//
// A cache is scoped to one (problem, estimator) pair: node keys assume the
// problem's fixed mapping from call names to (role, workload, model) and the
// estimator's fixed cost tables. Never share one across different problems
// or estimators.
type CostCache struct {
	mu    sync.RWMutex
	plans map[string]*estimator.Result

	nodeMu sync.RWMutex
	nodes  map[estimator.NodeSig]float64

	// costs is the compact plan-cost index: the PlanCost summary of every
	// plan scored through the solvers' incremental sessions, keyed exactly
	// like plans (fingerprint plus semantics prefix). It is deliberately
	// separate from plans — the hot path never materializes timelines, and
	// full Results are only built for chosen plans — but both levels count
	// into the same hit/miss statistics.
	costMu sync.RWMutex
	costs  map[string]estimator.PlanCost

	hits, misses atomic.Int64
}

// NewCostCache allocates an empty cache.
func NewCostCache() *CostCache {
	return &CostCache{
		plans: make(map[string]*estimator.Result),
		nodes: make(map[estimator.NodeSig]float64),
		costs: make(map[string]estimator.PlanCost),
	}
}

// Hits and Misses report plan-level lookup counters.
func (c *CostCache) Hits() int64   { return c.hits.Load() }
func (c *CostCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached plan evaluations.
func (c *CostCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// planCost looks up the compact plan-cost index. The key is a byte slice so
// chain-local evaluators can assemble it in a reusable buffer; the map
// lookup's string conversion does not allocate. Counts into the plan-level
// hit/miss statistics.
func (c *CostCache) planCost(key []byte) (estimator.PlanCost, bool) {
	c.costMu.RLock()
	pc, ok := c.costs[string(key)]
	c.costMu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return pc, ok
}

// storePlanCost records a compact plan cost computed on miss. Concurrent
// chains may race to fill the same key; evaluation is deterministic, so the
// values are identical and the last write wins.
func (c *CostCache) storePlanCost(key []byte, pc estimator.PlanCost) {
	c.costMu.Lock()
	c.costs[string(key)] = pc
	c.costMu.Unlock()
}

// DurationFunc adapts the cache's node-level memo to the estimator's
// DurationFunc shape — the shared fallback incremental EvalSessions consult
// on session-local misses, so node durations cross chains and solver
// invocations. The memo holds uncalibrated durations, so estimators with
// any calibration share it: a call's calibrated duration is its uncalibrated
// one times the call's factor, the multiplication NodeDuration performs.
func (c *CostCache) DurationFunc(e *estimator.Estimator) estimator.DurationFunc {
	raw := *e
	raw.Calib = nil
	return func(p *core.Plan, n *core.AugNode) (float64, error) {
		k, ok := estimator.SigOf(p, n)
		if !ok {
			return e.NodeDuration(p, n)
		}
		c.nodeMu.RLock()
		d, hit := c.nodes[k]
		c.nodeMu.RUnlock()
		if !hit {
			var err error
			if d, err = raw.NodeDuration(p, n); err != nil {
				return 0, err
			}
			c.nodeMu.Lock()
			c.nodes[k] = d
			c.nodeMu.Unlock()
		}
		if n.Kind == core.KindCall {
			d *= e.Calib.Factor(n.Call.Name)
		}
		return d, nil
	}
}

// appendPlanKey appends the plan-level cache key to b: the estimator's cost
// semantics, then core.Plan.Fingerprint's encoding over names (the plan's
// sorted call names), assembled in place so chains key allocation-free.
// Node durations are schedule-independent, but the simulated makespan is
// not — the overlapped engine gives comm nodes their own lane — and
// calibration rescales call durations, so both prefix the key and
// differently-costed evaluations of one plan never alias.
func appendPlanKey(b []byte, e *estimator.Estimator, names []string, p *core.Plan) []byte {
	if ck := e.CalibrationKey(); ck != "" {
		b = append(b, "calib="...)
		b = append(b, ck...)
		b = append(b, '|')
	}
	if e.OverlapComm {
		b = append(b, "overlap|"...)
	}
	for _, name := range names {
		b = append(b, name...)
		b = append(b, '=')
		if a, ok := p.Assign[name]; ok {
			b = a.AppendFingerprint(b)
		} else {
			b = append(b, '!')
		}
		b = append(b, ';')
	}
	return b
}

// Evaluate returns the memoized estimate of the plan, computing and caching
// it on miss. Concurrent callers may race to fill the same key; the
// evaluation is deterministic, so either result is identical and the last
// write wins. Errors (e.g. unassigned calls) are not cached.
func (c *CostCache) Evaluate(e *estimator.Estimator, p *core.Plan) (*estimator.Result, error) {
	names := p.CallNames()
	sort.Strings(names)
	key := string(appendPlanKey(nil, e, names, p))
	c.mu.RLock()
	r, ok := c.plans[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return r, nil
	}
	c.misses.Add(1)
	r, err := e.Evaluate(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.plans[key] = r
	c.mu.Unlock()
	return r, nil
}
