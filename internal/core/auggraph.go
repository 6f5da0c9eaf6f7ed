package core

import (
	"fmt"

	"realhf/internal/dfg"
	"realhf/internal/memory"
	"realhf/internal/mesh"
)

// Kind classifies augmented-graph nodes (paper Fig. 5: model function call
// nodes plus the rounded-square transfer nodes).
type Kind int

const (
	// KindCall is a model function call.
	KindCall Kind = iota
	// KindParamRealloc redistributes a model's parameters from its home
	// layout to the layout of an upcoming call.
	KindParamRealloc
	// KindDataTransfer moves intermediate data (sequences, log-probs,
	// rewards) between the meshes of dependent calls.
	KindDataTransfer
	// KindOffload reloads parameters parked in host memory onto the call's
	// mesh over PCIe.
	KindOffload
)

func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindParamRealloc:
		return "realloc"
	case KindDataTransfer:
		return "xfer"
	case KindOffload:
		return "offload"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CommLike reports whether the node kind is a communication node of the
// augmented graph (parameter reallocation, data transfer, offload) rather
// than a model function call. The runtime engine and the estimator share
// this classification: with overlapped execution enabled, comm-like nodes
// run on a device's communication stream, concurrent with the compute
// stream.
func (k Kind) CommLike() bool { return k != KindCall }

// AugNode is one node of the augmented dataflow graph Gp. Transfer-style
// nodes occupy both endpoint meshes; call nodes occupy exactly their
// assignment's mesh.
type AugNode struct {
	ID   int
	Kind Kind
	// Call is the model function call the node serves: the call itself for
	// KindCall, the consuming call for realloc, offload and transfer nodes.
	Call *dfg.Node
	// From is the producing call of a KindDataTransfer node.
	From *dfg.Node
	// Role owning the payload for realloc/offload nodes.
	Role dfg.Role
	// Meshes are the device meshes this node occupies while executing.
	Meshes []mesh.Mesh
	// Bytes is the payload size for transfer-style nodes.
	Bytes int64
	// Src and Dst are the endpoint assignments of transfer-style nodes.
	Src, Dst Assignment

	Parents  []int
	Children []int

	// meshBuf backs Meshes, so rebuilding a node in a builder's arena never
	// allocates for its (at most two) meshes.
	meshBuf [2]mesh.Mesh
}

// Label names the node for traces and diagnostics, e.g. "ActorGen@0",
// "realloc:ActorGen@1" or "xfer:ActorGen->RefInf@0". It is derived on
// demand so that building a graph formats nothing.
func (n *AugNode) Label() string {
	switch n.Kind {
	case KindCall:
		return fmt.Sprintf("%s@%d", n.Call.Name, n.Call.Iter)
	case KindDataTransfer:
		return fmt.Sprintf("xfer:%s->%s@%d", n.From.Name, n.Call.Name, n.Call.Iter)
	}
	return fmt.Sprintf("%s:%s@%d", n.Kind, n.Call.Name, n.Call.Iter)
}

// Overlaps reports whether two nodes contend for any device.
func (n *AugNode) Overlaps(o *AugNode) bool {
	for _, a := range n.Meshes {
		for _, b := range o.Meshes {
			if a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

// AugGraph is Gp: the plan's calls plus induced communication nodes.
type AugGraph struct {
	Nodes []*AugNode
}

// DataBytesPerToken approximates the per-token payload moved between calls:
// token ids, log-probs, rewards/values — a few scalars per position. The
// paper observes this traffic is negligible next to parameter reallocation,
// which our cost model reproduces.
const DataBytesPerToken = 8

// AugBuilder expands plans over one dataflow graph into augmented graphs. It
// prepares everything assignment-independent once — topological order,
// parent lists, each node's home call — and rebuilds into one node arena, so
// a long-lived builder (the estimator's incremental session) allocates
// nothing per build once warm. A builder is single-goroutine state.
type AugBuilder struct {
	graph   *dfg.Graph
	topo    []*dfg.Node
	parents [][]*dfg.Node // by dfg node ID
	home    []*dfg.Node   // by dfg node ID: the home call of the node's role
	callIdx []int         // by dfg node ID: arena index of its call node
	arena   []*AugNode
	g       AugGraph
}

// NewAugBuilder prepares a builder for the graph.
func NewAugBuilder(g *dfg.Graph) (*AugBuilder, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	b := &AugBuilder{
		graph:   g,
		topo:    topo,
		parents: make([][]*dfg.Node, len(g.Nodes)),
		home:    make([]*dfg.Node, len(g.Nodes)),
		callIdx: make([]int, len(g.Nodes)),
	}
	for _, n := range g.Nodes {
		b.parents[n.ID] = g.Parents(n)
		b.home[n.ID] = g.Home(n.Role)
	}
	return b, nil
}

// Graph returns the dataflow graph the builder was prepared for.
func (b *AugBuilder) Graph() *dfg.Graph { return b.graph }

// Topo returns the dataflow calls in build order: arena slot i of every
// Build holds the call node of Topo()[i], ahead of any transfer-style node.
// The slice is shared; callers must not modify it.
func (b *AugBuilder) Topo() []*dfg.Node { return b.topo }

// Parents returns n's dataflow parents. The slice is shared; callers must
// not modify it.
func (b *AugBuilder) Parents(n *dfg.Node) []*dfg.Node { return b.parents[n.ID] }

// Home returns the home call of n's role: where its parameters rest.
func (b *AugBuilder) Home(n *dfg.Node) *dfg.Node { return b.home[n.ID] }

// node takes the next arena slot, recycling its edge slices.
func (b *AugBuilder) node(k Kind, call *dfg.Node, meshes ...mesh.Mesh) *AugNode {
	id := len(b.g.Nodes)
	if id == len(b.arena) {
		b.arena = append(b.arena, &AugNode{})
	}
	n := b.arena[id]
	*n = AugNode{ID: id, Kind: k, Call: call, Role: call.Role,
		Parents: n.Parents[:0], Children: n.Children[:0]}
	n.Meshes = append(n.meshBuf[:0], meshes...)
	b.g.Nodes = b.arena[:id+1]
	return n
}

func edge(parent, child *AugNode) {
	parent.Children = append(parent.Children, child.ID)
	child.Parents = append(child.Parents, parent.ID)
}

// Build expands the plan into its augmented dataflow graph:
//
//   - every dfg node becomes a call node on its assigned mesh;
//   - a KindParamRealloc node precedes any call whose assignment differs
//     from the role's home (the bf16 weights are broadcast from the home
//     layout to the call layout, Fig. 6), gated by the call's same-role
//     parameter-version parents;
//   - a KindOffload node precedes any call whose assignment sources its
//     parameters from host memory (Assignment.Offload);
//   - a KindDataTransfer node replaces each data edge whose endpoints have
//     different assignments.
//
// Build checks only what the expansion itself needs — every call assigned
// and every role modelled — not the legality Plan.Validate checks. The
// returned graph lives in the builder's arena and is overwritten by the next
// Build.
func (b *AugBuilder) Build(p *Plan) (*AugGraph, error) {
	b.g.Nodes = b.arena[:0]
	for _, d := range b.topo {
		a, err := p.CallAssignment(d)
		if err != nil {
			return nil, err
		}
		b.callIdx[d.ID] = b.node(KindCall, d, a.Mesh).ID
	}

	for _, d := range b.topo {
		cn := b.arena[b.callIdx[d.ID]]
		a := p.Assign[d.Name]
		ms := p.Models[d.Role]
		home := p.Assign[b.home[d.ID].Name]

		var pre *AugNode
		switch {
		case a.Offload && !ms.Trainable:
			// Reload weights from host memory onto the call mesh.
			pre = b.node(KindOffload, d, a.Mesh)
			pre.Bytes = memory.ParamShardBytes(ms.Params(), a.Strategy) * int64(a.Mesh.NumGPUs())
			pre.Dst = a
		case !a.Equal(home):
			// Reallocate parameters home layout -> call layout.
			pre = b.node(KindParamRealloc, d, home.Mesh, a.Mesh)
			pre.Bytes = ms.Params() * 2
			pre.Src, pre.Dst = home, a
		}
		if pre != nil {
			// Parameter-version parents: same-role calls feeding this one.
			for _, par := range b.parents[d.ID] {
				if par.Role == d.Role {
					edge(b.arena[b.callIdx[par.ID]], pre)
				}
			}
			edge(pre, cn)
		}

		// Data edges from parents.
		for _, par := range b.parents[d.ID] {
			pn := b.arena[b.callIdx[par.ID]]
			pa := p.Assign[par.Name]
			if par.Role == d.Role && par.Type == dfg.Train {
				// Pure version dependency: the realloc/offload node (or the
				// call itself) already waits on it.
				edge(pn, cn)
				continue
			}
			if pa.Equal(a) {
				edge(pn, cn)
				continue
			}
			x := b.node(KindDataTransfer, d, pa.Mesh, a.Mesh)
			x.Role, x.From = "", par
			x.Bytes = par.Work.TotalTokens() * DataBytesPerToken
			x.Src, x.Dst = pa, a
			edge(pn, x)
			edge(x, cn)
		}
	}
	return &b.g, nil
}

// CallAssignment returns call d's assignment, checking what expanding d
// into the augmented graph needs: d is assigned and its role has a model
// spec. Build fails with this error at the first call lacking either.
func (p *Plan) CallAssignment(d *dfg.Node) (Assignment, error) {
	a, ok := p.Assign[d.Name]
	if !ok {
		return Assignment{}, fmt.Errorf("core: call %q has no assignment", d.Name)
	}
	if _, ok := p.Models[d.Role]; !ok {
		return Assignment{}, fmt.Errorf("core: no model spec for role %q", d.Role)
	}
	return a, nil
}

// Validate checks the augmented graph is a DAG.
func (g *AugGraph) Validate() error {
	indeg := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n.ID] = len(n.Parents)
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, c := range g.Nodes[id].Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if seen != len(g.Nodes) {
		return fmt.Errorf("core: augmented graph has a cycle")
	}
	return nil
}
