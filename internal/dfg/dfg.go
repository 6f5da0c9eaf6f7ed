// Package dfg implements the paper's dataflow graphs (§4): RLHF workflows
// decomposed into model function calls — generation, inference, and training
// tasks on independent LLMs — with data and parameter-version dependencies.
// Lower is the one wiring rule: every graph is a table of calls lowered by
// it. BuildPPO is the Fig. 4 PPO table the internal experiments, tests and
// golden plans use; every other workflow (the DPO, GRPO and ReMax presets
// of Fig. 16, and custom ones) is translated from the public API's model
// function call definitions. PaperSpec is the paper's Appendix A workload.
package dfg

import (
	"fmt"
	"slices"
)

// CallType classifies a model function call (paper §2.1).
type CallType int

const (
	// Generate is auto-regressive sampling: a prefill pass over the prompt
	// followed by one decoding step per generated token.
	Generate CallType = iota
	// Inference is a single forward pass over prompt+response.
	Inference
	// Train is a forward, backward and parameter update, possibly repeated
	// over several PPO mini-batches.
	Train
)

func (t CallType) String() string {
	switch t {
	case Generate:
		return "generate"
	case Inference:
		return "inference"
	case Train:
		return "train"
	}
	return fmt.Sprintf("calltype(%d)", int(t))
}

// Role identifies which LLM a call runs on. Models sharing a Role share
// parameters (and hence parameter-version dependencies across calls).
type Role string

// The four RLHF models of the PPO workflow.
const (
	Actor  Role = "actor"
	Critic Role = "critic"
	Ref    Role = "ref"
	Reward Role = "reward"
)

// Workload describes the data shape a call processes. Batch is the number of
// sequences entering the call on this iteration; PromptLen and GenLen are
// token counts per sequence. For Train calls, MiniBatches is the number of
// sequential PPO mini-batch updates (each over Batch/MiniBatches sequences).
type Workload struct {
	Batch       int
	PromptLen   int
	GenLen      int
	MiniBatches int
}

// SeqLen is the full sequence length the call touches.
func (w Workload) SeqLen() int { return w.PromptLen + w.GenLen }

// TotalTokens is Batch×SeqLen.
func (w Workload) TotalTokens() int64 { return int64(w.Batch) * int64(w.SeqLen()) }

// Node is one model function call v_i^t.
type Node struct {
	ID   int
	Name string // e.g. "ActorGen"
	Role Role
	Type CallType
	Iter int // training iteration t
	Work Workload
}

// UpdateBatch is the number of sequences one pass of the call processes: a
// Train call updates over Batch/MiniBatches sequences at a time, every other
// call over its whole Batch. Strategies are validated against it.
func (n *Node) UpdateBatch() int {
	if n.Type == Train && n.Work.MiniBatches > 1 {
		return n.Work.Batch / n.Work.MiniBatches
	}
	return n.Work.Batch
}

// Graph is a DAG of model function calls. Edges carry either data
// dependencies (within an iteration) or parameter-version dependencies
// (training at iteration t gates uses of the same Role at t+1).
type Graph struct {
	Nodes []*Node
	// Algo names the workflow: "ppo" for BuildPPO, "custom" for graphs
	// translated from the public API's call definitions.
	Algo string

	parents  map[int][]int
	children map[int][]int
	// calls is the first node of each call name and homes the home call of
	// each role, both in first-appearance order and maintained by AddNode.
	calls []*Node
	homes []*Node
}

// NewGraph returns an empty graph for the named algorithm.
func NewGraph(algo string) *Graph {
	return &Graph{Algo: algo, parents: map[int][]int{}, children: map[int][]int{}}
}

// AddNode appends a call and returns it.
func (g *Graph) AddNode(name string, role Role, typ CallType, iter int, w Workload) *Node {
	n := &Node{ID: len(g.Nodes), Name: name, Role: role, Type: typ, Iter: iter, Work: w}
	g.Nodes = append(g.Nodes, n)
	if !slices.ContainsFunc(g.calls, func(c *Node) bool { return c.Name == name }) {
		g.calls = append(g.calls, n)
	}
	i := slices.IndexFunc(g.homes, func(h *Node) bool { return h.Role == role })
	switch {
	case i < 0:
		g.homes = append(g.homes, n)
	case g.homes[i].Type != Train && typ == Train:
		g.homes[i] = n
	}
	return n
}

// Calls returns the first node of each distinct call name, in
// first-appearance order: the calls a plan assigns. The slice is shared;
// callers must not modify it.
func (g *Graph) Calls() []*Node { return g.calls }

// Home returns the call where role's parameters (and, for a trainable role,
// its gradients and optimizer states) rest: the role's first Train call,
// else its first call. It is nil when the role has no call.
func (g *Graph) Home(role Role) *Node {
	for _, h := range g.homes {
		if h.Role == role {
			return h
		}
	}
	return nil
}

// Homes returns the home call of every role, in the order the roles first
// appear. The slice is shared; callers must not modify it.
func (g *Graph) Homes() []*Node { return g.homes }

// AddEdge records a dependency from parent to child.
func (g *Graph) AddEdge(parent, child *Node) {
	g.children[parent.ID] = append(g.children[parent.ID], child.ID)
	g.parents[child.ID] = append(g.parents[child.ID], parent.ID)
}

// Parents returns the dependency parents of a node.
func (g *Graph) Parents(n *Node) []*Node { return g.resolve(g.parents[n.ID]) }

// Children returns the dependents of a node.
func (g *Graph) Children(n *Node) []*Node { return g.resolve(g.children[n.ID]) }

func (g *Graph) resolve(ids []int) []*Node {
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = g.Nodes[id]
	}
	return out
}

// Roles returns the distinct model roles appearing in the graph, sorted.
func (g *Graph) Roles() []Role {
	out := make([]Role, len(g.homes))
	for i, h := range g.homes {
		out[i] = h.Role
	}
	slices.Sort(out)
	return out
}

// TopoSort returns the nodes in a dependency-respecting order, or an error
// if the graph has a cycle.
func (g *Graph) TopoSort() ([]*Node, error) {
	indeg := make([]int, len(g.Nodes))
	for id := range g.Nodes {
		indeg[id] = len(g.parents[id])
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	var out []*Node
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		out = append(out, g.Nodes[id])
		for _, c := range g.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph %q has a cycle", g.Algo)
	}
	return out, nil
}

// Validate checks the graph is a DAG and that no call name repeats within
// an iteration: plans, memos and calibration all key a call by its name, so
// two calls sharing one would be planned and priced as one.
func (g *Graph) Validate() error {
	type key struct {
		iter int
		name string
	}
	seen := make(map[key]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		k := key{n.Iter, n.Name}
		if seen[k] {
			return fmt.Errorf("dfg: call %q appears twice in iteration %d: give each model function call a distinct name (ModelFunctionCallDef.Name)", n.Name, n.Iter)
		}
		seen[k] = true
	}
	_, err := g.TopoSort()
	return err
}

// Spec carries the workload knobs of a dataflow graph.
type Spec struct {
	// Batch is the global number of prompts per iteration.
	Batch int
	// PromptLen and GenLen are per-sequence token counts. The paper's base
	// setting uses prompt 1024, generation 1024 (context 2048).
	PromptLen int
	GenLen    int
	// MiniBatches is the PPO mini-batch count (8 in the paper's base
	// setting, after InstructGPT).
	MiniBatches int
	// Iterations is how many consecutive RLHF iterations to concatenate.
	Iterations int
}

// PaperSpec is the paper's base workload (Appendix A, after InstructGPT) at
// a cluster of the given size: 512 prompts per 16 GPUs (weak scaling, at
// least 32), 1024 prompt and 1024 generated tokens, 8 mini-batches, one
// iteration.
func PaperSpec(gpus int) Spec {
	return Spec{
		Batch: max(32, 512*gpus/16), PromptLen: 1024, GenLen: 1024,
		MiniBatches: 8, Iterations: 1,
	}
}

func (s Spec) withDefaults() Spec {
	if s.MiniBatches == 0 {
		s.MiniBatches = 8
	}
	if s.Iterations == 0 {
		s.Iterations = 1
	}
	return s
}

// Call is one model function call of a workflow table, in the form Lower
// wires: its name, the role it runs on, its type, its resolved workload,
// and the named data it consumes and produces.
type Call struct {
	Name    string
	Role    Role
	Type    CallType
	Work    Workload
	Inputs  []string
	Outputs []string
}

// Lower wires iterations consecutive copies of a call table into a graph.
// Within an iteration each call gets one data edge from each distinct
// producer of its inputs: the last other call listing that output. Across
// iterations a parameter-version edge runs from a role's last Train call to
// every call of that role in the next iteration. Graph.Validate, not Lower,
// rejects a repeated call name or a cycle.
func Lower(algo string, calls []Call, iterations int) *Graph {
	producer := make(map[string]int, len(calls))
	lastTrain := map[Role]int{}
	for i, c := range calls {
		for _, out := range c.Outputs {
			producer[out] = i
		}
		if c.Type == Train {
			lastTrain[c.Role] = i
		}
	}
	g := NewGraph(algo)
	for t := 0; t < iterations; t++ {
		for _, c := range calls {
			g.AddNode(c.Name, c.Role, c.Type, t, c.Work)
		}
		cur := g.Nodes[t*len(calls):]
		for i, c := range calls {
			for _, in := range c.Inputs {
				if j, ok := producer[in]; ok && j != i && !slices.Contains(g.parents[cur[i].ID], cur[j].ID) {
					g.AddEdge(cur[j], cur[i])
				}
			}
		}
		for i, c := range calls {
			if j, ok := lastTrain[c.Role]; ok && t > 0 {
				g.AddEdge(g.Nodes[(t-1)*len(calls)+j], cur[i])
			}
		}
	}
	return g
}

// BuildPPO lowers the PPO workflow of Fig. 4: per iteration, ActorGen →
// {RewInf, RefInf, CriticInf} → {ActorTrain, CriticTrain}, with
// parameter-version edges from each iteration's ActorTrain and CriticTrain
// to every call of the same role in the next.
func BuildPPO(s Spec) *Graph {
	s = s.withDefaults()
	w := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	train := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen, MiniBatches: s.MiniBatches}
	scores := []string{"r", "ref_logp", "v"}
	return Lower("ppo", []Call{
		{Name: "ActorGen", Role: Actor, Type: Generate, Work: w, Outputs: []string{"seq"}},
		{Name: "RewInf", Role: Reward, Type: Inference, Work: w, Inputs: []string{"seq"}, Outputs: []string{"r"}},
		{Name: "RefInf", Role: Ref, Type: Inference, Work: w, Inputs: []string{"seq"}, Outputs: []string{"ref_logp"}},
		{Name: "CriticInf", Role: Critic, Type: Inference, Work: w, Inputs: []string{"seq"}, Outputs: []string{"v"}},
		{Name: "ActorTrain", Role: Actor, Type: Train, Work: train, Inputs: scores},
		{Name: "CriticTrain", Role: Critic, Type: Train, Work: train, Inputs: scores},
	}, s.Iterations)
}
