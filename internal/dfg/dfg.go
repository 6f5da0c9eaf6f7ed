// Package dfg implements the paper's dataflow graphs (§4): RLHF workflows
// decomposed into model function calls — generation, inference, and training
// tasks on independent LLMs — with data and parameter-version dependencies.
// BuildPPO builds the Fig. 4 PPO graph the internal experiments, tests and
// golden plans use; every other workflow (the DPO, GRPO and ReMax presets
// of Fig. 16, and custom ones) is lowered from the public API's model
// function call definitions onto NewGraph/AddNode/AddEdge. PaperSpec is the
// paper's Appendix A workload.
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
	// lowered from the public API's call definitions.
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

// BuildPPO constructs the PPO dataflow graph of Fig. 4: per iteration,
// ActorGen → {RewInf, RefInf, CriticInf} → {ActorTrain, CriticTrain}, with
// parameter-version edges ActorTrain(t)→ActorGen(t+1) and
// CriticTrain(t)→CriticInf(t+1).
func BuildPPO(s Spec) *Graph {
	s = s.withDefaults()
	g := NewGraph("ppo")
	var prevActorTrain, prevCriticTrain *Node
	gen := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	inf := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	train := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen, MiniBatches: s.MiniBatches}
	for t := 0; t < s.Iterations; t++ {
		actorGen := g.AddNode("ActorGen", Actor, Generate, t, gen)
		rewInf := g.AddNode("RewInf", Reward, Inference, t, inf)
		refInf := g.AddNode("RefInf", Ref, Inference, t, inf)
		criticInf := g.AddNode("CriticInf", Critic, Inference, t, inf)
		actorTrain := g.AddNode("ActorTrain", Actor, Train, t, train)
		criticTrain := g.AddNode("CriticTrain", Critic, Train, t, train)

		for _, infNode := range []*Node{rewInf, refInf, criticInf} {
			g.AddEdge(actorGen, infNode)
			g.AddEdge(infNode, actorTrain)
			g.AddEdge(infNode, criticTrain)
		}
		if prevActorTrain != nil {
			g.AddEdge(prevActorTrain, actorGen)
		}
		if prevCriticTrain != nil {
			g.AddEdge(prevCriticTrain, criticInf)
			g.AddEdge(prevCriticTrain, criticTrain)
		}
		prevActorTrain, prevCriticTrain = actorTrain, criticTrain
	}
	return g
}
