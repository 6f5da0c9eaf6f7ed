package estimator_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/mesh"
)

// sigSeen is the first node costed under one signature: its duration and
// where it ran, so a later hit from another position can be counted.
type sigSeen struct {
	dur   float64
	label string
	pos   [2]int
}

// TestEqualSignaturesEqualDurations: the session memo answers any node
// whose NodeSig it has seen, so equal signatures must mean bit-equal
// durations. Call signatures drop the mesh's first GPU and transfer
// signatures shift by whole nodes, so the property reaches across mesh
// positions. On every preset at 1, 2 and 4 nodes, calibrated and not,
// random plans, single-call mutations and whole-node shifts of each plan
// are expanded, and every node's NodeDuration is checked against the first
// node seen with its signature.
func TestEqualSignaturesEqualDurations(t *testing.T) {
	moved := map[core.Kind]int{}
	for _, algo := range []string{"ppo", "grpo", "dpo", "remax"} {
		for _, nodes := range []int{1, 2, 4} {
			base := presetPlan(t, algo, nodes, 2)
			meshes := mesh.Enumerate(base.Cluster)
			names := base.CallNames()
			calib := map[string]float64{names[0]: 1.7, names[len(names)-1]: 0.6}
			for _, calibrated := range []bool{false, true} {
				e := estimator.NewOracle(base.Cluster, base.Models, true)
				if calibrated {
					e.Calib = estimator.NewCalibration(calib)
				}
				name := fmt.Sprintf("%s/%dn/calib=%v", algo, nodes, calibrated)
				checkSigs(t, name, e, base, meshes, int64(nodes), moved)
			}
		}
	}
	for _, k := range []core.Kind{core.KindCall, core.KindParamRealloc, core.KindDataTransfer, core.KindOffload} {
		if moved[k] == 0 {
			t.Errorf("no %v signature was shared by nodes at different positions", k)
		}
	}
	t.Logf("signatures shared across positions: %v", moved)
}

func checkSigs(t *testing.T, name string, e *estimator.Estimator, base *core.Plan, meshes []mesh.Mesh, seed int64, moved map[core.Kind]int) {
	t.Helper()
	b, err := core.NewAugBuilder(base.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	calls := base.Graph.Calls()
	seen := map[estimator.NodeSig]sigSeen{}
	check := func(p *core.Plan) {
		g, err := b.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, n := range g.Nodes {
			sig, ok := estimator.SigOf(p, n)
			if !ok {
				continue
			}
			d, err := e.NodeDuration(p, n)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, n.Label(), err)
			}
			pos := [2]int{n.Src.Mesh.First, n.Dst.Mesh.First}
			if n.Kind == core.KindCall {
				pos = [2]int{p.Assign[n.Call.Name].Mesh.First, 0}
			}
			first, ok := seen[sig]
			if !ok {
				seen[sig] = sigSeen{dur: d, label: n.Label(), pos: pos}
				continue
			}
			if math.Float64bits(d) != math.Float64bits(first.dur) {
				t.Fatalf("%s: %s at %v costs %v, but %s at %v with the same signature cost %v",
					name, n.Label(), pos, d, first.label, first.pos, first.dur)
			}
			if pos != first.pos {
				moved[n.Kind]++
			}
		}
	}
	p := base.Clone()
	for trial := 0; trial < 8; trial++ {
		for _, n := range calls {
			p.Assign[n.Name] = randomAssignment(rng, p, meshes, n)
		}
		for mut := 0; mut < 6; mut++ {
			if mut > 0 {
				n := calls[rng.Intn(len(calls))]
				p.Assign[n.Name] = randomAssignment(rng, p, meshes, n)
			}
			check(p)
			checkShifted(p, check)
		}
	}
}

// checkShifted runs check on copies of p with every mesh moved by each
// whole-node shift that keeps the plan inside its cluster.
func checkShifted(p *core.Plan, check func(*core.Plan)) {
	lo, hi := p.Cluster.Nodes, 0
	for _, a := range p.Assign {
		lo = min(lo, a.Mesh.FirstNode())
		hi = max(hi, a.Mesh.FirstNode()+a.Mesh.NumNodes())
	}
	for k := -lo; k <= p.Cluster.Nodes-hi; k++ {
		if k == 0 {
			continue
		}
		q := p.Clone()
		for name, a := range q.Assign {
			a.Mesh.First += k * a.Mesh.M
			q.Assign[name] = a
		}
		check(q)
	}
}
