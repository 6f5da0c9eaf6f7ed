package search

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/model"
)

// deltaVariants spans the cost-semantics matrix the incremental session must
// reproduce bit for bit: both overlap modes, with and without profile
// calibration.
func deltaVariants(t *testing.T, e *estimator.Estimator) map[string]*estimator.Estimator {
	t.Helper()
	calib := estimator.NewCalibration(map[string]float64{
		"ActorGen": 1.7, "CriticTrain": 0.8,
	})
	if calib == nil {
		t.Fatal("calibration unexpectedly nil")
	}
	out := map[string]*estimator.Estimator{}
	for _, overlap := range []bool{false, true} {
		for _, c := range []*estimator.Calibration{nil, calib} {
			ev := *e
			ev.OverlapComm = overlap
			ev.Calib = c
			name := "serial"
			if overlap {
				name = "overlap"
			}
			if c != nil {
				name += "+calib"
			}
			out[name] = &ev
		}
	}
	return out
}

// mutatePlans drives one (session, estimator) pair through a randomized
// mutation walk: random full re-assignments followed by runs of single-call
// mutations, asserting after every step that the incremental evaluation
// equals a from-scratch Estimator.Evaluate field for field, bit for bit.
// Failures are reported with Errorf (never FailNow), so the walk is safe to
// run from spawned goroutines.
func mutatePlans(t *testing.T, e *estimator.Estimator, sess *estimator.EvalSession,
	p *core.Plan, sets map[string]*cands, seed int64, trials, muts int) {
	t.Helper()
	names := p.CallNames()
	rng := rand.New(rand.NewSource(seed))
	plan := p.Clone()
	for trial := 0; trial < trials; trial++ {
		for _, n := range names {
			cs := sets[n]
			plan.Assign[n] = cs.at(rng.Intn(cs.n))
		}
		for mut := 0; mut < muts; mut++ {
			if mut > 0 {
				n := names[rng.Intn(len(names))]
				cs := sets[n]
				plan.Assign[n] = cs.at(rng.Intn(cs.n))
			}
			got, err := sess.Evaluate(plan)
			if err != nil {
				t.Errorf("trial %d mut %d: session: %v", trial, mut, err)
				return
			}
			full, err := e.Evaluate(plan)
			if err != nil {
				t.Errorf("trial %d mut %d: full: %v", trial, mut, err)
				return
			}
			if want := estimator.CostOf(full); got != want {
				t.Errorf("trial %d mut %d: delta re-costing diverged from full Evaluate:\n got %+v\nwant %+v\nplan %s",
					trial, mut, got, want, plan.Fingerprint())
				return
			}
		}
	}
}

// TestDeltaCostingMatchesFullEvaluate is the incremental-costing contract's
// differential property test: under every cost semantics, a session fed
// randomized plans and single-RPC mutations returns exactly what a
// from-scratch evaluation returns.
func TestDeltaCostingMatchesFullEvaluate(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneNone, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range deltaVariants(t, e) {
		t.Run(name, func(t *testing.T) {
			sess := ev.NewSession(nil)
			mutatePlans(t, ev, sess, p, sets, 11, 6, 20)
			if st := sess.Stats(); st.NodeRecosts >= st.NodeLookups {
				t.Errorf("session never reused a node duration: %+v", st)
			}
		})
	}
}

// TestDeltaCostingOffloadFlips extends the differential property to the
// offload axis: with offload-aware candidate sets the mutation walk flips
// per-call host offload on frozen roles (same mesh and strategy, toggled
// Offload), exercising the session's offload-node re-costing and the
// role-residency static-memory memo under every cost semantics.
func TestDeltaCostingOffloadFlips(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneNone, true)
	if err != nil {
		t.Fatal(err)
	}
	offloaded := 0
	for _, cs := range sets {
		for _, a := range expand(cs) {
			if a.Offload {
				offloaded++
			}
		}
	}
	if offloaded == 0 {
		t.Fatal("offload-aware candidate sets contain no offloaded assignment")
	}
	for name, ev := range deltaVariants(t, e) {
		t.Run(name, func(t *testing.T) {
			mutatePlans(t, ev, ev.NewSession(nil), p, sets, 23, 6, 20)
		})
	}
}

// TestDeltaCostingDirectFallback covers a session whose fallback is the
// estimator's own NodeDuration (a nil fallback) on a two-node problem over
// aggressively pruned candidate sets: it must agree with full evaluation
// just the same.
func TestDeltaCostingDirectFallback(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 128, 256, 256)
	sets, _, err := candidateSets(p, PruneAggressive, false)
	if err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession(nil)
	mutatePlans(t, e, sess, p, sets, 5, 4, 15)
}

// TestDeltaCostingConcurrentSessions runs sessions on concurrent goroutines
// over one Estimator's cost tables — the multi-chain mcmc topology — each
// verifying the differential property on its own mutation walk. Every cost
// semantics, calibrated and uncalibrated, runs two sessions on the same
// *Estimator. Run under -race this checks the session concurrency
// contract: sessions are single-goroutine state, and the estimator they
// share is read-only.
func TestDeltaCostingConcurrentSessions(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneModerate, false)
	if err != nil {
		t.Fatal(err)
	}
	variants := deltaVariants(t, e)
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	var wg sync.WaitGroup
	for g, name := range names {
		for k := int64(0); k < 2; k++ {
			wg.Add(1)
			go func(ev *estimator.Estimator, seed int64) {
				defer wg.Done()
				mutatePlans(t, ev, ev.NewSession(nil), p, sets, seed, 3, 15)
			}(variants[name], int64(2*g)+k+1)
		}
	}
	wg.Wait()
}
