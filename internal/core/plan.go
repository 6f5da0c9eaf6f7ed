// Package core implements the paper's central abstraction: the execution
// plan (§4). A plan assigns every model function call of an RLHF dataflow
// graph a device mesh D_i and a parallelization strategy S_i, and expands
// into an augmented dataflow graph Gp whose extra nodes are the parameter
// reallocations, data transfers and offload operations the assignment
// implies (Fig. 5).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

// Assignment binds a model function call to a device mesh and a strategy,
// plus the per-call host-offload decision: whether the role's parameters are
// parked in host memory between calls and reloaded over PCIe for this one.
type Assignment struct {
	Mesh     mesh.Mesh
	Strategy parallel.Strategy
	// Offload sources this call's parameters from host memory instead of
	// device-resident weights: a KindOffload reload node precedes the call,
	// and the role's resting bf16 copy leaves the static ledger. It is a
	// searched plan dimension (ROADMAP "offload-aware planning"), only legal
	// on frozen roles — trainable roles keep optimizer state on-device.
	Offload bool
}

// Equal reports whether two assignments place the call identically: same
// mesh and same strategy. Offload is deliberately excluded — it decides how
// the parameters reach the mesh (host reload vs device-resident), not where
// the call runs, so it must not fabricate realloc or data-transfer nodes
// between calls that share a layout.
func (a Assignment) Equal(b Assignment) bool {
	return a.Mesh.Equal(b.Mesh) && a.Strategy == b.Strategy
}

func (a Assignment) String() string {
	s := fmt.Sprintf("%s %s", a.Mesh, a.Strategy)
	if a.Offload {
		s += " offload"
	}
	return s
}

// ModelSpec describes one of the plan's LLMs.
type ModelSpec struct {
	Role dfg.Role
	Cfg  model.Config
	// IsCritic marks scalar-head models (critic, reward).
	IsCritic bool
	// Trainable models keep gradients and optimizer state at their home.
	Trainable bool
}

// Params is the model's parameter count, respecting the head variant.
func (ms ModelSpec) Params() int64 {
	if ms.IsCritic {
		return ms.Cfg.CriticParams()
	}
	return ms.Cfg.Params()
}

// PPOModels builds the standard four-model RLHF cast: a trainable actor and
// critic plus frozen reference and reward models (critic-sized).
func PPOModels(actor, critic model.Config) map[dfg.Role]ModelSpec {
	return map[dfg.Role]ModelSpec{
		dfg.Actor:  {Role: dfg.Actor, Cfg: actor, Trainable: true},
		dfg.Critic: {Role: dfg.Critic, Cfg: critic, IsCritic: true, Trainable: true},
		dfg.Ref:    {Role: dfg.Ref, Cfg: actor},
		dfg.Reward: {Role: dfg.Reward, Cfg: critic, IsCritic: true},
	}
}

// Plan is an execution plan p: per-call assignments over a cluster for a
// dataflow graph. Assignments are keyed by call name; the same call repeats
// with the same assignment every iteration, as in the paper's plans
// (Tables 2–5).
type Plan struct {
	// Cluster and Models are problem inputs, not solver decisions: the
	// fingerprint covers them indirectly through the problem key that the
	// cache composes with it, so the plan fingerprint itself hashes only
	// the graph shape and the assignments.
	//lint:realvet fieldcover -- problem input; covered by the cache's problem key, not the plan fingerprint
	Cluster hardware.Cluster
	Graph   *dfg.Graph
	//lint:realvet fieldcover -- problem input; covered by the cache's problem key, not the plan fingerprint
	Models map[dfg.Role]ModelSpec
	Assign map[string]Assignment
}

// NewPlan allocates an empty plan for the graph.
func NewPlan(cluster hardware.Cluster, g *dfg.Graph, models map[dfg.Role]ModelSpec) *Plan {
	return &Plan{Cluster: cluster, Graph: g, Models: models, Assign: map[string]Assignment{}}
}

// Clone deep-copies the plan (graph and models are shared, assignments are
// copied) — the search engine mutates clones.
func (p *Plan) Clone() *Plan {
	a := make(map[string]Assignment, len(p.Assign))
	for k, v := range p.Assign {
		a[k] = v
	}
	return &Plan{Cluster: p.Cluster, Graph: p.Graph, Models: p.Models, Assign: a}
}

// CallNames returns the distinct call names of the graph in first-appearance
// order.
func (p *Plan) CallNames() []string {
	calls := p.Graph.Calls()
	out := make([]string, len(calls))
	for i, n := range calls {
		out[i] = n.Name
	}
	return out
}

// AssignmentOf returns the assignment of a call node.
func (p *Plan) AssignmentOf(n *dfg.Node) (Assignment, bool) {
	a, ok := p.Assign[n.Name]
	return a, ok
}

// Validate checks that every call is assigned a legal mesh and a strategy
// valid for its model and workload.
func (p *Plan) Validate() error {
	if err := p.Cluster.Validate(); err != nil {
		return err
	}
	for _, n := range p.Graph.Nodes {
		a, ok := p.Assign[n.Name]
		if !ok {
			return fmt.Errorf("core: call %q has no assignment", n.Name)
		}
		if err := a.Mesh.Validate(); err != nil {
			return fmt.Errorf("core: call %q: %w", n.Name, err)
		}
		// Compared without summing: First+Count of a hostile stored plan
		// could wrap past the bound.
		if a.Mesh.First > p.Cluster.NumGPUs()-a.Mesh.Count {
			return fmt.Errorf("core: call %q mesh %v exceeds cluster of %d GPUs", n.Name, a.Mesh, p.Cluster.NumGPUs())
		}
		if a.Mesh.M != p.Cluster.GPUsPerNode {
			return fmt.Errorf("core: call %q mesh node size %d != cluster %d", n.Name, a.Mesh.M, p.Cluster.GPUsPerNode)
		}
		ms, ok := p.Models[n.Role]
		if !ok {
			return fmt.Errorf("core: no model spec for role %q", n.Role)
		}
		if a.Offload && ms.Trainable {
			return fmt.Errorf("core: call %q offloads trainable role %q: optimizer state pins trainable parameters on-device", n.Name, n.Role)
		}
		if err := a.Strategy.Validate(a.Mesh, ms.Cfg, n.UpdateBatch()); err != nil {
			return fmt.Errorf("core: call %q: %w", n.Name, err)
		}
	}
	return nil
}

// HomeOf returns the assignment where a role's parameters (and, for
// trainable roles, gradients and optimizer states) rest: the assignment of
// the role's home call (dfg.Graph.Home). ok is false when the role has no
// call or its home call is unassigned.
func (p *Plan) HomeOf(role dfg.Role) (Assignment, bool) {
	h := p.Graph.Home(role)
	if h == nil {
		return Assignment{}, false
	}
	a, ok := p.Assign[h.Name]
	return a, ok
}

// RoleOffloaded reports whether the role's parameters rest in host memory
// under this plan: every one of its calls is assigned and sources parameters
// through a host reload (Assignment.Offload). A partially offloaded role
// still needs its device-resident copy between the non-offloaded calls, so
// only the all-calls case releases the static ledger.
func (p *Plan) RoleOffloaded(role dfg.Role) bool {
	found := false
	for _, n := range p.Graph.Calls() {
		if n.Role != role {
			continue
		}
		if a, ok := p.Assign[n.Name]; !ok || !a.Offload {
			return false
		}
		found = true
	}
	return found
}

// appendFingerprint appends the assignment's canonical encoding: mesh
// extent plus every strategy field, including ZeRO3 (two baseline plans
// differing only in ZeRO3 must not collide in a memoization map).
func (a Assignment) appendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(b, int64(a.Mesh.First), 10)
	b = append(b, '+')
	b = strconv.AppendInt(b, int64(a.Mesh.Count), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(a.Strategy.DP), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(a.Strategy.TP), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(a.Strategy.PP), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(a.Strategy.MicroBatches), 10)
	if a.Strategy.ZeRO3 {
		b = append(b, 'z')
	}
	if a.Offload {
		b = append(b, 'o')
	}
	return b
}

// AppendFingerprint appends the assignment's canonical encoding to b and
// returns the extended slice — the allocation-free form of Fingerprint for
// callers that assemble composite cache keys in reusable buffers. realvet's
// fieldcover check anchors the mesh and strategy key components on it
// (analysis.FieldCoverExtras), so it stays exported without an in-module
// caller.
func (a Assignment) AppendFingerprint(b []byte) []byte {
	return a.appendFingerprint(b)
}

// Fingerprint returns a compact canonical key identifying the assignment,
// for memoization maps keyed by (call, mesh, strategy).
func (a Assignment) Fingerprint() string {
	return string(a.appendFingerprint(make([]byte, 0, 24)))
}

// Fingerprint returns a canonical key identifying the plan's assignments.
// Two plans over the same problem (cluster, graph, models) have equal
// fingerprints iff every call carries an identical assignment, so the key
// is safe for cost-cache lookups shared across concurrent search chains.
// Unassigned calls are encoded explicitly and so never collide with
// assigned ones.
func (p *Plan) Fingerprint() string {
	names := p.CallNames()
	sort.Strings(names)
	b := make([]byte, 0, 32*len(names))
	for _, name := range names {
		b = append(b, name...)
		b = append(b, '=')
		if a, ok := p.Assign[name]; ok {
			b = a.appendFingerprint(b)
		} else {
			b = append(b, '!')
		}
		b = append(b, ';')
	}
	return string(b)
}

// Table renders the plan in the format of paper Tables 2–5. Durations (if
// provided, keyed by call name, in seconds) fill the Time column.
func (p *Plan) Table(times map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-16s %4s %4s %4s %8s %10s\n",
		"Call", "DeviceMesh", "TP", "PP", "DP", "#Micro", "Time")
	for _, name := range p.CallNames() {
		a := p.Assign[name]
		timeStr := "-"
		if times != nil {
			if t, ok := times[name]; ok {
				timeStr = fmt.Sprintf("%.1fs", t)
			}
		}
		fmt.Fprintf(&b, "%-12s %-16s %4d %4d %4d %8d %10s\n",
			name, a.Mesh, a.Strategy.TP, a.Strategy.PP, a.Strategy.DP,
			a.Strategy.MicroBatches, timeStr)
	}
	return b.String()
}
