package core

import (
	"encoding/json"
	"fmt"
	"os"

	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

// planJSON is the on-disk representation of an execution plan. It carries
// the cluster shape, the model cast, and the per-call assignments — enough
// to rebuild the plan against a freshly constructed dataflow graph.
type planJSON struct {
	Version     int                       `json:"version"`
	Nodes       int                       `json:"nodes"`
	GPUsPerNode int                       `json:"gpus_per_node"`
	Algo        string                    `json:"algo"`
	Models      []modelJSON               `json:"models"`
	Assignments map[string]assignmentJSON `json:"assignments"`
}

type modelJSON struct {
	Role      string `json:"role"`
	Arch      string `json:"arch"`
	IsCritic  bool   `json:"is_critic,omitempty"`
	Trainable bool   `json:"trainable,omitempty"`
	// LegacyOffload is read, never written: plans saved before offload was a
	// per-call decision carried it per model, and loading maps it onto every
	// call of the role.
	LegacyOffload bool `json:"offload_when_idle,omitempty"`
}

type assignmentJSON struct {
	MeshFirst    int  `json:"mesh_first"`
	MeshCount    int  `json:"mesh_count"`
	DP           int  `json:"dp"`
	TP           int  `json:"tp"`
	PP           int  `json:"pp"`
	MicroBatches int  `json:"micro_batches"`
	ZeRO3        bool `json:"zero3,omitempty"`
	Offload      bool `json:"offload,omitempty"`
}

// MarshalJSON encodes the plan for storage; the dataflow graph itself is not
// serialized (it is reconstructed from the experiment configuration).
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{
		Version:     1,
		Nodes:       p.Cluster.Nodes,
		GPUsPerNode: p.Cluster.GPUsPerNode,
		Algo:        p.Graph.Algo,
		Assignments: map[string]assignmentJSON{},
	}
	for _, role := range p.Graph.Roles() {
		ms := p.Models[role]
		out.Models = append(out.Models, modelJSON{
			Role: string(role), Arch: ms.Cfg.Name, IsCritic: ms.IsCritic,
			Trainable: ms.Trainable,
		})
	}
	for name, a := range p.Assign {
		out.Assignments[name] = assignmentJSON{
			MeshFirst: a.Mesh.First, MeshCount: a.Mesh.Count,
			DP: a.Strategy.DP, TP: a.Strategy.TP, PP: a.Strategy.PP,
			MicroBatches: a.Strategy.MicroBatches, ZeRO3: a.Strategy.ZeRO3,
			Offload: a.Offload,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// SavePlan writes the plan to a file.
func SavePlan(p *Plan, path string) error {
	data, err := p.MarshalJSON()
	if err != nil {
		return fmt.Errorf("core: marshal plan: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// UnmarshalPlan decodes a plan serialized by Plan.MarshalJSON (the SavePlan
// format) and attaches it to the given dataflow graph, validating the
// result. The graph's call names must match the stored assignments.
func UnmarshalPlan(data []byte, g *dfg.Graph) (*Plan, error) {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: parse plan: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("core: unsupported plan version %d", in.Version)
	}
	cluster := hardware.DefaultCluster(in.Nodes)
	if in.GPUsPerNode > 0 {
		cluster.GPUsPerNode = in.GPUsPerNode
	}
	models := map[dfg.Role]ModelSpec{}
	legacyOffload := map[dfg.Role]bool{}
	for _, mj := range in.Models {
		cfg, err := model.ByName(mj.Arch)
		if err != nil {
			return nil, fmt.Errorf("core: plan references %w", err)
		}
		if mj.LegacyOffload && mj.Trainable {
			return nil, fmt.Errorf("core: role %q is trainable but marked offload_when_idle: optimizer state pins trainable parameters on-device", mj.Role)
		}
		role := dfg.Role(mj.Role)
		models[role] = ModelSpec{Role: role, Cfg: cfg, IsCritic: mj.IsCritic, Trainable: mj.Trainable}
		legacyOffload[role] = mj.LegacyOffload
	}
	p := NewPlan(cluster, g, models)
	roleOf := map[string]dfg.Role{}
	for _, n := range g.Calls() {
		roleOf[n.Name] = n.Role
	}
	for name, aj := range in.Assignments {
		role, known := roleOf[name]
		if !known {
			return nil, fmt.Errorf("core: stored plan assigns call %q, which the graph does not contain", name)
		}
		p.Assign[name] = Assignment{
			Mesh: mesh.Mesh{First: aj.MeshFirst, Count: aj.MeshCount, M: cluster.GPUsPerNode},
			Strategy: parallel.Strategy{
				DP: aj.DP, TP: aj.TP, PP: aj.PP,
				MicroBatches: aj.MicroBatches, ZeRO3: aj.ZeRO3,
			},
			Offload: aj.Offload || legacyOffload[role],
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded plan invalid: %w", err)
	}
	return p, nil
}
