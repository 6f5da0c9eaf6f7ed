package dfg

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func baseSpec() Spec {
	return Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, MiniBatches: 8, Iterations: 1}
}

func TestPPOShape(t *testing.T) {
	g := BuildPPO(baseSpec())
	if len(g.Nodes) != 6 {
		t.Fatalf("PPO iteration has %d calls, want 6", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("PPO graph invalid: %v", err)
	}
	byName := map[string]*Node{}
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	gen := byName["ActorGen"]
	if len(g.Parents(gen)) != 0 {
		t.Error("ActorGen of iteration 0 must be a source")
	}
	if len(g.Children(gen)) != 3 {
		t.Errorf("ActorGen feeds %d calls, want 3 inferences", len(g.Children(gen)))
	}
	at := byName["ActorTrain"]
	if len(g.Parents(at)) != 3 {
		t.Errorf("ActorTrain has %d parents, want 3", len(g.Parents(at)))
	}
	if at.Work.MiniBatches != 8 {
		t.Errorf("ActorTrain mini-batches = %d, want 8", at.Work.MiniBatches)
	}
}

func TestPPOMultiIterationVersionEdges(t *testing.T) {
	s := baseSpec()
	s.Iterations = 3
	g := BuildPPO(s)
	if len(g.Nodes) != 18 {
		t.Fatalf("3 iterations have %d calls, want 18", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// ActorGen at iteration 1 must depend on ActorTrain at iteration 0.
	var gen1 *Node
	for _, n := range g.Nodes {
		if n.Iter == 1 && n.Name == "ActorGen" {
			gen1 = n
		}
	}
	found := false
	for _, p := range g.Parents(gen1) {
		if p.Name == "ActorTrain" && p.Iter == 0 {
			found = true
		}
	}
	if !found {
		t.Error("missing parameter-version edge ActorTrain(0) -> ActorGen(1)")
	}
}

// TestCallsAndHomes: over several iterations, Calls keeps the first node of
// each call name and Home the role's first Train call, else its first call.
func TestCallsAndHomes(t *testing.T) {
	s := baseSpec()
	s.Iterations = 2
	g := BuildPPO(s)
	var names []string
	for _, n := range g.Calls() {
		if n.Iter != 0 {
			t.Errorf("Calls holds %s of iteration %d, want iteration 0", n.Name, n.Iter)
		}
		names = append(names, n.Name)
	}
	want := []string{"ActorGen", "RewInf", "RefInf", "CriticInf", "ActorTrain", "CriticTrain"}
	if !slices.Equal(names, want) {
		t.Errorf("Calls = %v, want %v", names, want)
	}
	for role, home := range map[Role]string{Actor: "ActorTrain", Critic: "CriticTrain", Ref: "RefInf", Reward: "RewInf"} {
		if h := g.Home(role); h == nil || h.Name != home || h.Iter != 0 {
			t.Errorf("Home(%s) = %+v, want %s of iteration 0", role, h, home)
		}
	}
	if len(g.Homes()) != 4 || g.Home("vision") != nil {
		t.Errorf("Homes = %d calls, Home(vision) = %v; want 4 and nil", len(g.Homes()), g.Home("vision"))
	}
}

func TestTopoSortRespectsDependencies(t *testing.T) {
	s := baseSpec()
	s.Iterations = 4
	g := BuildPPO(s)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range g.Nodes {
		for _, p := range g.Parents(n) {
			if pos[p.ID] >= pos[n.ID] {
				t.Fatalf("topo order violates edge %s(%d) -> %s(%d)", p.Name, p.Iter, n.Name, n.Iter)
			}
		}
	}
}

// TestLowerWiringRules pins the rules Lower documents on a table that
// exercises each: a call reading several outputs of one producer gets one
// edge, its own output and an input no call produces get none, the last
// producer of a name wins, and version edges leave the role's last Train
// call for every call of the role in the next iteration.
func TestLowerWiringRules(t *testing.T) {
	w := Workload{Batch: 8}
	g := Lower("rules", []Call{
		{Name: "Gen", Role: Actor, Type: Generate, Work: w, Inputs: []string{"prompts"}, Outputs: []string{"seq", "logp"}},
		{Name: "Score", Role: Reward, Type: Inference, Work: w, Inputs: []string{"seq", "logp", "s"}, Outputs: []string{"s", "r"}},
		{Name: "Rescore", Role: Reward, Type: Inference, Work: w, Inputs: []string{"seq"}, Outputs: []string{"r"}},
		{Name: "Warmup", Role: Actor, Type: Train, Work: w, Inputs: []string{"r"}},
		{Name: "Train", Role: Actor, Type: Train, Work: w, Inputs: []string{"seq", "r", "logp"}},
	}, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	parents := func(n *Node) []string {
		var out []string
		for _, p := range g.Parents(n) {
			out = append(out, fmt.Sprintf("%s@%d", p.Name, p.Iter))
		}
		return out
	}
	want := map[string][]string{
		"Gen@0": nil, "Score@0": {"Gen@0"}, "Rescore@0": {"Gen@0"},
		"Warmup@0": {"Rescore@0"}, "Train@0": {"Gen@0", "Rescore@0"},
		"Gen@1": {"Train@0"}, "Score@1": {"Gen@1"}, "Rescore@1": {"Gen@1"},
		"Warmup@1": {"Rescore@1", "Train@0"}, "Train@1": {"Gen@1", "Rescore@1", "Train@0"},
	}
	for _, n := range g.Nodes {
		key := fmt.Sprintf("%s@%d", n.Name, n.Iter)
		if got := parents(n); !slices.Equal(got, want[key]) {
			t.Errorf("%s parents = %v, want %v", key, got, want[key])
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph("test")
	a := g.AddNode("A", Actor, Train, 0, Workload{Batch: 1})
	b := g.AddNode("B", Actor, Train, 0, Workload{Batch: 1})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestWorkloadArithmetic(t *testing.T) {
	w := Workload{Batch: 512, PromptLen: 1024, GenLen: 1024}
	if w.SeqLen() != 2048 {
		t.Errorf("SeqLen = %d", w.SeqLen())
	}
	if w.TotalTokens() != 512*2048 {
		t.Errorf("TotalTokens = %d", w.TotalTokens())
	}
}

// Property: BuildPPO produces a DAG whose per-iteration call count is
// constant, for any iteration count.
func TestBuildersScaleWithIterations(t *testing.T) {
	f := func(it uint8) bool {
		iters := int(it%5) + 1
		s := baseSpec()
		s.Iterations = iters
		g := BuildPPO(s)
		return len(g.Nodes) == 6*iters && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCallTypeString(t *testing.T) {
	if Generate.String() != "generate" || Inference.String() != "inference" || Train.String() != "train" {
		t.Error("CallType strings wrong")
	}
}

func TestPaperSpec(t *testing.T) {
	for _, tc := range []struct{ gpus, batch int }{{16, 512}, {128, 4096}, {8, 256}, {1, 32}} {
		s := PaperSpec(tc.gpus)
		if s.Batch != tc.batch {
			t.Errorf("PaperSpec(%d).Batch = %d, want %d", tc.gpus, s.Batch, tc.batch)
		}
		if s.PromptLen != 1024 || s.GenLen != 1024 || s.MiniBatches != 8 || s.Iterations != 1 {
			t.Errorf("PaperSpec(%d) = %+v, want prompt 1024, gen 1024, 8 mini-batches, 1 iteration", tc.gpus, s)
		}
	}
}
