package core

import (
	"encoding/json"
	"strings"
	"testing"

	"realhf/internal/dfg"
	"realhf/internal/model"
)

// reload marshals p in the SavePlan format and decodes it onto g.
func reload(t *testing.T, p *Plan, g *dfg.Graph) (*Plan, error) {
	t.Helper()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return UnmarshalPlan(data, g)
}

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := reload(t, p, g)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fingerprint() != p.Fingerprint() {
		t.Errorf("round trip changed assignments:\n%s\nvs\n%s", p.Fingerprint(), q.Fingerprint())
	}
	if q.Cluster.Nodes != 2 || q.Cluster.GPUsPerNode != 8 {
		t.Errorf("cluster shape lost: %+v", q.Cluster)
	}
	if !q.Models[dfg.Actor].Trainable || q.Models[dfg.Reward].Trainable {
		t.Error("trainability lost in round trip")
	}
	if q.Models[dfg.Critic].Cfg.Name != "7b" || !q.Models[dfg.Critic].IsCritic {
		t.Error("critic model spec lost in round trip")
	}
}

// legacyOffloadBytes serializes p as a plan file written before offload was
// a per-call decision: role carries the model-level offload_when_idle key.
func legacyOffloadBytes(t *testing.T, p *Plan, role dfg.Role) []byte {
	t.Helper()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	for i := range in.Models {
		if in.Models[i].Role == string(role) {
			in.Models[i].LegacyOffload = true
		}
	}
	out, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadPlanMapsLegacyOffloadHint: a legacy file's offload_when_idle on a
// frozen role becomes the per-call Offload bit of every call of that role,
// re-marshals without the legacy key, and is rejected on a trainable role.
func TestLoadPlanMapsLegacyOffloadHint(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := UnmarshalPlan(legacyOffloadBytes(t, p, dfg.Ref), g)
	if err != nil {
		t.Fatal(err)
	}
	if !q.RoleOffloaded(dfg.Ref) {
		t.Error("legacy offload_when_idle not mapped onto per-call Offload at load")
	}
	if q.Assign["ActorGen"].Offload {
		t.Error("legacy offload_when_idle leaked onto another role's call")
	}
	again, err := q.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(again), "offload_when_idle") {
		t.Errorf("re-marshaled plan still carries the legacy key:\n%s", again)
	}
	if _, err := UnmarshalPlan(legacyOffloadBytes(t, p, dfg.Actor), g); err == nil {
		t.Error("legacy offload_when_idle on a trainable role must be rejected")
	}
}

func TestPlanRoundTripPerCallOffload(t *testing.T) {
	// A per-call Offload decision (no model-level hint) must survive the
	// save/load cycle and reappear on exactly the calls that carried it.
	p := ppoPlan(t, 2, 1)
	a := p.Assign["RefInf"]
	a.Offload = true
	p.Assign["RefInf"] = a

	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := reload(t, p, g)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Assign["RefInf"].Offload {
		t.Error("per-call Offload lost in round trip")
	}
	if q.Assign["ActorGen"].Offload {
		t.Error("Offload leaked onto a call that never carried it")
	}
	if q.Fingerprint() != p.Fingerprint() {
		t.Errorf("round trip changed fingerprint:\n%s\nvs\n%s", p.Fingerprint(), q.Fingerprint())
	}
}

func TestLoadPlanRejectsOffloadedTrainable(t *testing.T) {
	// A stored plan that offloads a trainable role is invalid: optimizer
	// state pins trainable parameters on-device.
	p := ppoPlan(t, 2, 1)
	a := p.Assign["ActorTrain"]
	a.Offload = true
	p.Assign["ActorTrain"] = a
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	if _, err := reload(t, p, g); err == nil {
		t.Error("loading a plan that offloads a trainable role must fail")
	}
}

func TestLoadPlanRejectsMismatchedGraph(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	// A graph with other call names: validation must fail.
	g := dfg.NewGraph("custom")
	w := dfg.Workload{Batch: 512, PromptLen: 1024, GenLen: 1024}
	ref := g.AddNode("RefInf", dfg.Ref, dfg.Inference, 0, w)
	w.MiniBatches = 1
	g.AddEdge(ref, g.AddNode("PolicyTrain", dfg.Actor, dfg.Train, 0, w))
	if _, err := reload(t, p, g); err == nil {
		t.Error("loading a PPO plan onto a graph with other call names must fail")
	}
}

func TestLoadPlanRejectsGarbage(t *testing.T) {
	data, err := ppoPlan(t, 2, 1).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	for _, bad := range []string{"", "{nope", string(data[:len(data)/2]), `{"version": 2}`} {
		if _, err := UnmarshalPlan([]byte(bad), g); err == nil {
			t.Errorf("UnmarshalPlan(%.40q) accepted garbage", bad)
		}
	}
}

func TestMarshalIsHumanReadable(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"\"version\": 1", "ActorGen", "\"tp\"", "\"arch\": \"7b\""} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized plan missing %q", want)
		}
	}
	_ = model.LLaMA7B
}
