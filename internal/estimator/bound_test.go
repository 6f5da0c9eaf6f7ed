package estimator_test

import (
	"fmt"
	"math/rand"
	"testing"

	"realhf"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// presetPlan is the heuristic plan of an algorithm preset at a cluster size:
// its graph, models and cluster are what the planner searches over.
func presetPlan(t *testing.T, algo string, nodes, iters int) *core.Plan {
	t.Helper()
	cfg, err := realhf.PaperExperiment(algo, "llama7b", "llama7b-critic", nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = iters
	exp, err := realhf.NewPlanner(realhf.ClusterConfig{}).Heuristic(cfg)
	if err != nil {
		t.Fatalf("%s at %d nodes: %v", algo, nodes, err)
	}
	return exp.Plan
}

// randomAssignment draws a legal (mesh, strategy) for call n, host-offloaded
// a quarter of the time when the call's role is frozen.
func randomAssignment(rng *rand.Rand, p *core.Plan, meshes []mesh.Mesh, n *dfg.Node) core.Assignment {
	ms := p.Models[n.Role]
	batch := n.UpdateBatch()
	for {
		m := meshes[rng.Intn(len(meshes))]
		sts := parallel.Enumerate(m.Count, min(m.Count, p.Cluster.GPUsPerNode), ms.Cfg.NumLayers)
		if len(sts) == 0 {
			continue
		}
		st := sts[rng.Intn(len(sts))]
		if batch%st.DP != 0 {
			continue
		}
		mbs := parallel.MicroBatchOptions(max(batch/st.DP, 1))
		a := core.Assignment{Mesh: m, Strategy: st.WithMicroBatches(mbs[rng.Intn(len(mbs))])}
		if a.Strategy.Validate(m, ms.Cfg, batch) != nil {
			continue
		}
		a.Offload = !ms.Trainable && rng.Intn(4) == 0
		return a
	}
}

// TestSessionBoundIsLowerBound: on every preset, cluster size and cost
// semantics, EvalSession.Bound never exceeds the makespan Evaluate simulates,
// whether the plan is fresh or one call away from the last one scored. The
// MCMC chains reject proposals on the bound alone, so a bound above the
// makespan would change which plans they accept.
func TestSessionBoundIsLowerBound(t *testing.T) {
	tight := 0
	for _, algo := range []string{"ppo", "grpo", "dpo", "remax"} {
		for _, nodes := range []int{1, 2, 4, 16} {
			for _, iters := range []int{1, 2} {
				base := presetPlan(t, algo, nodes, iters)
				meshes := mesh.Enumerate(base.Cluster)
				names := base.CallNames()
				calib := map[string]float64{names[0]: 1.7, names[len(names)-1]: 0.6}
				for _, overlap := range []bool{false, true} {
					for _, calibrated := range []bool{false, true} {
						e := estimator.NewOracle(base.Cluster, base.Models, true)
						e.OverlapComm = overlap
						if calibrated {
							e.Calib = estimator.NewCalibration(calib)
						}
						name := fmt.Sprintf("%s/%dn/iters=%d/overlap=%v/calib=%v", algo, nodes, iters, overlap, calibrated)
						if checkBound(t, name, e, base, meshes, int64(nodes*10+iters)) {
							tight++
						}
					}
				}
			}
		}
	}
	t.Logf("%d heuristic plans ran on one mesh", tight)
	if tight == 0 {
		t.Error("no preset's heuristic plan ran on one mesh; the device term went unpinned")
	}
}

// checkBound walks the base plan, random plans and single-call mutations of
// them through one session, comparing Bound with Evaluate after every move.
// It reports whether checkTight pinned the base plan.
func checkBound(t *testing.T, name string, e *estimator.Estimator, base *core.Plan, meshes []mesh.Mesh, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess := e.NewSession(nil)
	calls := base.Graph.Calls()
	p := base.Clone()
	tight := checkTight(t, name, e, sess, base)
	for trial := 0; trial < 8; trial++ {
		for _, n := range calls {
			p.Assign[n.Name] = randomAssignment(rng, p, meshes, n)
		}
		for mut := 0; mut < 6; mut++ {
			if mut > 0 {
				n := calls[rng.Intn(len(calls))]
				p.Assign[n.Name] = randomAssignment(rng, p, meshes, n)
			}
			lb, err := sess.Bound(p)
			if err != nil {
				t.Fatalf("%s: Bound: %v", name, err)
			}
			pc, err := sess.Evaluate(p)
			if err != nil {
				t.Fatalf("%s: Evaluate: %v", name, err)
			}
			if !(lb > 0 && lb <= pc.TimeCost) {
				t.Fatalf("%s: bound %.17g outside (0, makespan %.17g]\nplan %s", name, lb, pc.TimeCost, p.Fingerprint())
			}
			// A one-shot estimate agrees with the session it follows.
			if full, err := e.Evaluate(p); err != nil || full.TimeCost != pc.TimeCost {
				t.Fatalf("%s: one-shot Evaluate %v (err %v), session %v", name, full, err, pc.TimeCost)
			}
		}
	}
	return tight
}

// checkTight: on a plan whose calls all share one mesh and need no
// transfer-style node, every call runs back to back on every device, so the
// device term is the makespan up to its rounding margin. It reports whether
// p is such a plan.
func checkTight(t *testing.T, name string, e *estimator.Estimator, sess *estimator.EvalSession, p *core.Plan) bool {
	t.Helper()
	full, err := e.Evaluate(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, sn := range full.Timeline {
		if sn.Node.Kind != core.KindCall || sn.Node.Meshes[0] != full.Timeline[0].Node.Meshes[0] {
			return false
		}
	}
	lb, err := sess.Bound(p)
	if err != nil {
		t.Fatalf("%s: Bound: %v", name, err)
	}
	if !(lb <= full.TimeCost && lb >= full.TimeCost*(1-1e-12)) {
		t.Errorf("%s: bound %.17g on a one-mesh plan, want the makespan %.17g", name, lb, full.TimeCost)
	}
	return true
}

// TestSessionBoundFailsWithEvaluate: Bound errors exactly where Evaluate
// does, with the same error, so a chain never draws its Metropolis number
// for a plan that cannot be scored.
func TestSessionBoundFailsWithEvaluate(t *testing.T) {
	base := presetPlan(t, "ppo", 2, 1)
	e := estimator.NewOracle(base.Cluster, base.Models, true)
	calls := base.CallNames()
	out := base.Clone()
	a := out.Assign[calls[1]]
	a.Mesh.First = base.Cluster.NumGPUs()
	out.Assign[calls[1]] = a
	unassigned := base.Clone()
	delete(unassigned.Assign, calls[2])
	noModel := base.Clone()
	noModel.Models = map[dfg.Role]core.ModelSpec{dfg.Actor: base.Models[dfg.Actor]}
	noCoster := estimator.New(e.HW, nil)

	for _, tc := range []struct {
		name string
		e    *estimator.Estimator
		p    *core.Plan
	}{
		{"mesh-outside-cluster", e, out},
		{"unassigned-call", e, unassigned},
		{"role-without-model", e, noModel},
		{"role-without-coster", noCoster, base},
	} {
		// A warm session first scores the valid plan, so the failure
		// also meets a populated slot cache.
		sess := tc.e.NewSession(nil)
		if tc.e == e {
			if _, err := sess.Evaluate(base); err != nil {
				t.Fatal(err)
			}
		}
		_, berr := sess.Bound(tc.p)
		_, eerr := sess.Evaluate(tc.p)
		if berr == nil || eerr == nil || berr.Error() != eerr.Error() {
			t.Errorf("%s: Bound error %v, Evaluate error %v; want the same error from both", tc.name, berr, eerr)
		}
	}
}
