package dfg_test

import (
	"reflect"
	"testing"

	"realhf"
	"realhf/internal/dfg"
)

// presetGraph lowers the public workflow preset for algo into its dataflow
// graph (one iteration of the paper's 512-prompt base workload) by
// heuristic-planning it: the presets are the only DPO/GRPO/ReMax graphs, so
// their shapes are checked on what the planner actually builds.
func presetGraph(t *testing.T, algo string) *dfg.Graph {
	t.Helper()
	rpcs, err := realhf.AlgoRPCs(algo, "llama7b", "llama7b-critic")
	if err != nil {
		t.Fatal(err)
	}
	cfg := realhf.ExperimentConfig{
		Nodes: 1, BatchSize: 512, PromptLen: 1024, GenLen: 1024, MiniBatches: 8, RPCs: rpcs,
	}
	exp, err := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1}).Heuristic(cfg)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return exp.Plan.Graph
}

func generations(g *dfg.Graph) []*dfg.Node {
	var gens []*dfg.Node
	for _, n := range g.Nodes {
		if n.Type == dfg.Generate {
			gens = append(gens, n)
		}
	}
	return gens
}

func TestDPOShape(t *testing.T) {
	g := presetGraph(t, "dpo")
	if len(g.Nodes) != 2 {
		t.Fatalf("DPO has %d calls, want 2", len(g.Nodes))
	}
	if roles := g.Roles(); !reflect.DeepEqual(roles, []dfg.Role{dfg.Actor, dfg.Ref}) {
		t.Errorf("DPO roles = %v, want [actor ref]", roles)
	}
	if gens := generations(g); len(gens) != 0 {
		t.Errorf("DPO has %d generation calls, want none", len(gens))
	}
	for _, n := range g.Nodes {
		if n.Work.Batch != 2*512 {
			t.Errorf("DPO processes chosen+rejected: %s batch %d, want 1024", n.Name, n.Work.Batch)
		}
	}
}

func TestGRPOShape(t *testing.T) {
	g := presetGraph(t, "grpo")
	if len(g.Nodes) != 4 {
		t.Fatalf("GRPO has %d calls, want 4", len(g.Nodes))
	}
	for _, r := range g.Roles() {
		if r == dfg.Critic {
			t.Error("GRPO must not use a critic")
		}
	}
	for _, n := range g.Nodes {
		if n.Work.Batch != 512*realhf.GRPOGroupSize {
			t.Errorf("GRPO grouped batch: %s batch %d, want %d", n.Name, n.Work.Batch, 512*realhf.GRPOGroupSize)
		}
	}
}

func TestReMaxConcurrentGenerations(t *testing.T) {
	g := presetGraph(t, "remax")
	if len(g.Nodes) != 5 {
		t.Fatalf("ReMax has %d calls, want 5", len(g.Nodes))
	}
	gens := generations(g)
	if len(gens) != 2 {
		t.Fatalf("ReMax has %d generation calls, want 2", len(gens))
	}
	// The two generations must be mutually independent (this is what lets
	// ReaL run them concurrently, the paper's biggest Fig. 16 win).
	reaches := func(from, to *dfg.Node) bool {
		seen := map[int]bool{}
		stack := []*dfg.Node{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range g.Children(n) {
				if c == to {
					return true
				}
				if !seen[c.ID] {
					seen[c.ID] = true
					stack = append(stack, c)
				}
			}
		}
		return false
	}
	if reaches(gens[0], gens[1]) || reaches(gens[1], gens[0]) {
		t.Error("generation calls must not depend on each other")
	}
	sources := 0
	for _, n := range g.Nodes {
		if len(g.Parents(n)) == 0 {
			sources++
		}
	}
	if sources != 2 {
		t.Errorf("ReMax iteration 0 has %d sources, want the 2 generations", sources)
	}
}
