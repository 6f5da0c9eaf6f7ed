package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"realhf/internal/estimator"
)

// fullWalk is the chain loop as it was before the bound-first Metropolis
// test: every proposal is scored with a full EvalSession.Evaluate. It is
// the reference TestBoundedWalkMatchesFullWalk holds the solver to.
func fullWalk(c *chainState, ctx context.Context, sp *space, opt Options, start time.Time, until int) {
	for {
		step := c.step + 1
		if opt.MaxSteps > 0 && step > opt.MaxSteps {
			c.done = true
			return
		}
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
		pc, err := c.sess.Evaluate(c.cur)
		if err != nil {
			c.cur.Assign[name] = prev
			continue
		}
		accept := pc.Cost <= c.curCost ||
			c.rng.Float64() < math.Exp(-c.beta*(pc.Cost-c.curCost))
		if accept {
			c.curCost = pc.Cost
			c.curOOM = pc.OOM
			c.accepted++
			if beats(pc.OOM, pc.Cost, c.bestOOM, c.bestCost) {
				c.bestCost = pc.Cost
				c.bestOOM = pc.OOM
				copyAssign(c.best, c.cur)
				c.beta = adaptiveBeta(c.bestCost)
				c.record(ProgressPoint{Elapsed: time.Since(start), Step: step, BestCost: c.bestCost})
			}
		} else {
			c.cur.Assign[name] = prev
		}
		if step%progressEvery == 0 {
			c.record(ProgressPoint{Elapsed: time.Since(start), Step: step, BestCost: c.bestCost})
		}
	}
}

// TestBoundedWalkMatchesFullWalk: rejecting proposals on the call-only
// bound changes no decision and no RNG draw, so the solver walks exactly
// the chain the full-evaluate reference walks — same steps, acceptances,
// per-chain results, trace and winner — under every cost semantics, with
// one chain and with exchanging chains.
func TestBoundedWalkMatchesFullWalk(t *testing.T) {
	prob := testProblem(t, 2, 256)
	calibrated := *prob.Est
	calibrated.Calib = estimator.NewCalibration(map[string]float64{"ActorGen": 1.4, "CriticTrain": 0.7})
	offPlan, offEst := offloadProblem(t, 64, 512, 512)
	variants := []struct {
		name string
		prob Problem
		opt  Options
	}{
		{"default", prob, Options{}},
		{"overlap", Problem{Est: prob.Est, Plan: prob.Plan, Overlap: true}, Options{}},
		{"offload", Problem{Est: offEst, Plan: offPlan}, Options{OffloadSearch: true}},
		{"calibrated", Problem{Est: &calibrated, Plan: prob.Plan}, Options{}},
	}
	var rejected int
	for _, v := range variants {
		for _, chains := range []int{1, 2} {
			for seed := int64(1); seed <= 5; seed++ {
				opt := v.opt
				opt.Seed, opt.MaxSteps, opt.Chains, opt.ExchangeEvery = seed, 300, chains, 64
				name := fmt.Sprintf("%s/chains=%d/seed=%d", v.name, chains, seed)
				got, gst, gpts := solveStreamed(t, mcmcSolver{}, v.prob, opt)
				want, wst, wpts := solveStreamed(t, mcmcSolver{walk: fullWalk}, v.prob, opt)
				sameWalk(t, name, got, gst, want, wst)
				if !slices.Equal(gpts, wpts) {
					t.Errorf("%s: streamed trace points differ from the reference:\n got %v\nwant %v", name, gpts, wpts)
				}
				rejected += gst.BoundRejected
			}
		}
	}
	if rejected == 0 {
		t.Error("no proposal was rejected on the bound; the bounded path went untested")
	}
}

// solveStreamed runs one solve and also returns every trace point its
// chains streamed, as (Step, BestCost) pairs in order. Exchanging chains
// interleave their points by wall clock, so for them the points are sorted.
func solveStreamed(t *testing.T, s mcmcSolver, prob Problem, opt Options) (Solution, Stats, [][2]float64) {
	t.Helper()
	var pts [][2]float64
	opt.Progress = func(pt ProgressPoint) { pts = append(pts, [2]float64{float64(pt.Step), pt.BestCost}) }
	sol, st, err := s.Solve(context.Background(), prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Chains > 1 {
		slices.SortFunc(pts, func(a, b [2]float64) int {
			if c := cmp.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return cmp.Compare(a[1], b[1])
		})
	}
	return sol, st, pts
}

// sameWalk compares a solve with its full-evaluate reference on everything
// deterministic: counters, per-chain results, trace steps and costs, and
// the winning plan.
func sameWalk(t *testing.T, name string, got Solution, gst Stats, want Solution, wst Stats) {
	t.Helper()
	if gst.Steps != wst.Steps || gst.Accepted != wst.Accepted {
		t.Errorf("%s: %d steps / %d accepted, reference %d / %d", name, gst.Steps, gst.Accepted, wst.Steps, wst.Accepted)
	}
	if wst.BoundRejected != 0 {
		t.Errorf("%s: the reference walk counted %d bound rejections", name, wst.BoundRejected)
	}
	if len(gst.Chains) != len(wst.Chains) {
		t.Fatalf("%s: %d chains, reference %d", name, len(gst.Chains), len(wst.Chains))
	}
	sum := 0
	for i, g := range gst.Chains {
		w := wst.Chains[i]
		sum += g.BoundRejected
		g.BoundRejected = 0
		if g != w {
			t.Errorf("%s: chain %d stats %+v, reference %+v", name, i, g, w)
		}
	}
	if sum != gst.BoundRejected {
		t.Errorf("%s: chains rejected %d on the bound, Stats count %d", name, sum, gst.BoundRejected)
	}
	// A multi-chain trace merges the chains' curves by wall clock; the
	// streamed points compare those curves point for point instead.
	if len(gst.Chains) == 1 {
		if len(gst.Trace) != len(wst.Trace) {
			t.Fatalf("%s: %d trace points, reference %d", name, len(gst.Trace), len(wst.Trace))
		}
		for i, g := range gst.Trace {
			if w := wst.Trace[i]; g.Step != w.Step || g.BestCost != w.BestCost {
				t.Errorf("%s: trace point %d at step %d cost %v, reference step %d cost %v",
					name, i, g.Step, g.BestCost, w.Step, w.BestCost)
			}
		}
	}
	if got.Cost != want.Cost || got.Plan.Fingerprint() != want.Plan.Fingerprint() {
		t.Errorf("%s: winner %v %s, reference %v %s", name, got.Cost, got.Plan.Fingerprint(), want.Cost, want.Plan.Fingerprint())
	}
}
