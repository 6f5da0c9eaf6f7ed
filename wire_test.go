package realhf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestExperimentConfigWireRoundTrip is the codec contract the plan service
// keys its caches and coalescing on: marshaling is canonical and stable,
// and a config that crosses the wire keeps its problemKey and fingerprint
// bit for bit.
func TestExperimentConfigWireRoundTrip(t *testing.T) {
	cfg := plannerConfig(3, 200)
	cfg.SearchTime = 90 * time.Millisecond
	cfg.PlanForOverlap = true

	first, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("marshaling the same config twice produced different bytes")
	}

	var decoded ExperimentConfig
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	redone, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, redone) {
		t.Errorf("marshal(decode(marshal(cfg))) != marshal(cfg):\n%s\nvs\n%s", first, redone)
	}
	if got, want := decoded.Fingerprint(), cfg.Fingerprint(); got != want {
		t.Errorf("fingerprint drifted across the wire:\n%s\nvs\n%s", got, want)
	}
	if got, want := decoded.withDefaults().problemKey(), cfg.withDefaults().problemKey(); got != want {
		t.Errorf("problemKey drifted across the wire:\n%s\nvs\n%s", got, want)
	}

	// The canonical form applies package defaults, so a sparse config and
	// its explicit-default twin fingerprint and marshal identically.
	sparse := ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"),
	}
	explicit := sparse.withDefaults()
	sb, err := json.Marshal(sparse)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, eb) {
		t.Errorf("sparse and defaults-applied configs marshal differently:\n%s\nvs\n%s", sb, eb)
	}
	if sparse.Fingerprint() != explicit.Fingerprint() {
		t.Error("sparse and defaults-applied configs fingerprint differently")
	}
}

// TestExperimentConfigStrictDecode: unknown fields are rejected (a typoed
// knob must not silently plan a different experiment), wrapping
// ErrInvalidConfig.
func TestExperimentConfigStrictDecode(t *testing.T) {
	var cfg ExperimentConfig
	err := json.Unmarshal([]byte(`{"batch_size":64,"search_stepz":100}`), &cfg)
	if !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown field decoded with err = %v, want wrapped ErrInvalidConfig", err)
	}
	var cc ClusterConfig
	if err := json.Unmarshal([]byte(`{"bogus":1}`), &cc); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown cluster field decoded with err = %v, want wrapped ErrInvalidConfig", err)
	}
}

// TestInterfaceTypeJSON: interface types travel by paper name, decode
// case-insensitively, and reject unknown names with ErrInvalidConfig. A
// non-string is json's own type error for a bare InterfaceType, and wraps
// ErrInvalidConfig inside a config.
func TestInterfaceTypeJSON(t *testing.T) {
	for typ, name := range map[InterfaceType]string{
		Generate: `"GENERATE"`, Inference: `"INFERENCE"`, TrainStep: `"TRAIN_STEP"`,
	} {
		b, err := json.Marshal(typ)
		if err != nil || string(b) != name {
			t.Errorf("marshal %v = %s, %v; want %s", typ, b, err, name)
		}
		for _, spelled := range []string{name, strings.ToLower(name), name[:2] + strings.ToLower(name[2:])} {
			var back InterfaceType
			if err := json.Unmarshal([]byte(spelled), &back); err != nil || back != typ {
				t.Errorf("unmarshal %s = %v, %v; want %v", spelled, back, err, typ)
			}
		}
	}
	var it InterfaceType
	if err := json.Unmarshal([]byte(`"TRAIN"`), &it); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown interface type decoded with err = %v, want wrapped ErrInvalidConfig", err)
	}
	var typeErr *json.UnmarshalTypeError
	if err := json.Unmarshal([]byte(`3`), &it); !errors.As(err, &typeErr) {
		t.Errorf("bare non-string interface type decoded with err = %v, want *json.UnmarshalTypeError", err)
	}
	var cfg ExperimentConfig
	if err := json.Unmarshal([]byte(`{"rpcs":[{"interface_type":3}]}`), &cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("non-string interface type in a config decoded with err = %v, want wrapped ErrInvalidConfig", err)
	}
	// A null is a no-op, as for every scalar field: the call keeps the zero
	// type, exactly as when interface_type is omitted.
	cfg = ExperimentConfig{}
	if err := json.Unmarshal([]byte(`{"rpcs":[{"interface_type":null}]}`), &cfg); err != nil || cfg.RPCs[0].InterfaceType != Generate {
		t.Errorf("null interface type decoded to %+v, %v; want GENERATE and no error", cfg.RPCs, err)
	}
	if _, err := json.Marshal(InterfaceType(99)); err == nil {
		t.Error("out-of-range interface type marshaled without error")
	}
}

// TestPresetConfigWireBytes pins the canonical bytes of the four preset
// configs, interface-type names included: the plan service's request and
// response bodies, and every stored config, carry exactly these.
func TestPresetConfigWireBytes(t *testing.T) {
	const tail = `"search_steps":100,"search_time_ns":0,"seed":1,"solver":"mcmc","search_parallelism":0,"plan_for_overlap":false,"offload_search":false}`
	const head = `{"nodes":1,"gpus_per_node":8,"batch_size":64,"prompt_len":256,"gen_len":256,"mini_batches":8,"iterations":1,"rpcs":`
	want := map[string]string{
		"ppo": head + `[{"model_name":"actor","model_type":"llama7b","interface_type":"GENERATE","input_data":["prompts"],"output_data":["seq","logp"]},` +
			`{"model_name":"reward","model_type":"llama7b-critic","interface_type":"INFERENCE","input_data":["seq"],"output_data":["r"]},` +
			`{"model_name":"ref","model_type":"llama7b","interface_type":"INFERENCE","input_data":["seq"],"output_data":["ref_logp"]},` +
			`{"model_name":"critic","model_type":"llama7b-critic","interface_type":"INFERENCE","input_data":["seq"],"output_data":["v"]},` +
			`{"model_name":"actor","model_type":"llama7b","interface_type":"TRAIN_STEP","input_data":["seq","logp","ref_logp","r","v"]},` +
			`{"model_name":"critic","model_type":"llama7b-critic","interface_type":"TRAIN_STEP","input_data":["seq","r","v","ref_logp","logp"]}],` + tail,
		"dpo": head + `[{"name":"RefInf","model_name":"ref","model_type":"llama7b","interface_type":"INFERENCE","input_data":["pairs"],"output_data":["ref_logp"],"batch_scale":2},` +
			`{"name":"ActorTrain","model_name":"actor","model_type":"llama7b","interface_type":"TRAIN_STEP","input_data":["pairs","ref_logp"],"batch_scale":2,"mini_batches":1}],` + tail,
		"grpo": head + `[{"name":"ActorGen","model_name":"actor","model_type":"llama7b","interface_type":"GENERATE","input_data":["prompts"],"output_data":["seq"],"batch_scale":8},` +
			`{"name":"RewInf","model_name":"reward","model_type":"llama7b-critic","interface_type":"INFERENCE","input_data":["seq"],"output_data":["r"],"batch_scale":8},` +
			`{"name":"RefInf","model_name":"ref","model_type":"llama7b","interface_type":"INFERENCE","input_data":["seq"],"output_data":["ref_logp"],"batch_scale":8},` +
			`{"name":"ActorTrain","model_name":"actor","model_type":"llama7b","interface_type":"TRAIN_STEP","input_data":["seq","r","ref_logp"],"batch_scale":8}],` + tail,
		"remax": head + `[{"name":"SampleGen","model_name":"actor","model_type":"llama7b","interface_type":"GENERATE","input_data":["prompts"],"output_data":["sample_seq"]},` +
			`{"name":"GreedyGen","model_name":"actor","model_type":"llama7b","interface_type":"GENERATE","input_data":["prompts"],"output_data":["greedy_seq"]},` +
			`{"name":"SampleRew","model_name":"reward","model_type":"llama7b-critic","interface_type":"INFERENCE","input_data":["sample_seq"],"output_data":["sample_r"]},` +
			`{"name":"GreedyRew","model_name":"reward","model_type":"llama7b-critic","interface_type":"INFERENCE","input_data":["greedy_seq"],"output_data":["greedy_r"]},` +
			`{"name":"ActorTrain","model_name":"actor","model_type":"llama7b","interface_type":"TRAIN_STEP","input_data":["sample_seq","sample_r","greedy_r"],"mini_batches":1}],` + tail,
	}
	for i, preset := range fuzzPresets {
		got, err := json.Marshal(fuzzPlanConfig(uint8(i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want[preset] {
			t.Errorf("%s config marshals to\n%s\nwant\n%s", preset, got, want[preset])
		}
	}
}

// TestClusterConfigWireRoundTrip: the session config marshals with its
// cache-capacity defaults applied and survives a round trip.
func TestClusterConfigWireRoundTrip(t *testing.T) {
	b, err := json.Marshal(ClusterConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterConfig
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	want := ClusterConfig{Nodes: 4}.withDefaults()
	if back != want {
		t.Errorf("round trip = %+v, want canonical %+v", back, want)
	}
	if back.PlanCacheEntries <= 0 || back.ProblemCacheEntries <= 0 {
		t.Errorf("canonical form lost cache-capacity defaults: %+v", back)
	}
}

// TestLoadExperimentBytesRoundTrip: MarshalPlan bytes rebuild an equivalent
// runnable experiment in memory — the wire twin of SavePlan/LoadExperiment.
func TestLoadExperimentBytesRoundTrip(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(3, 200)
	exp, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := exp.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := p.LoadExperimentBytes(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Plan.Fingerprint(), exp.Plan.Fingerprint(); got != want {
		t.Fatalf("loaded fingerprint %q != original %q", got, want)
	}
	origRep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	loadedRep, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if loadedRep.IterationTime != origRep.IterationTime {
		t.Errorf("loaded experiment runs in %v, original %v", loadedRep.IterationTime, origRep.IterationTime)
	}

	// Mismatched configs must be rejected, not silently re-cast.
	other := cfg
	other.Nodes = 2
	if _, err := p.LoadExperimentBytes(data, other); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("cluster-shape mismatch loaded with err = %v, want wrapped ErrInvalidConfig", err)
	}
	if _, err := p.LoadExperimentBytes([]byte(`{"version":99`), cfg); err == nil {
		t.Error("truncated plan bytes loaded without error")
	}
}

// fuzzPresets are the workflows FuzzLoadExperimentBytes loads plans for; a
// corpus entry's preset byte selects one.
var fuzzPresets = []string{"ppo", "dpo", "grpo", "remax"}

// fuzzPlanConfig is the one-node config a plan for fuzzPresets[preset mod 4]
// is loaded against.
func fuzzPlanConfig(preset uint8) ExperimentConfig {
	rpcs, err := AlgoRPCs(fuzzPresets[int(preset)%len(fuzzPresets)], "llama7b", "llama7b-critic")
	if err != nil {
		panic(err) // every fuzzPresets entry is a preset
	}
	return ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: rpcs, SearchSteps: 100, Seed: 1,
	}
}

// editPlanJSON decodes serialized plan bytes into generic JSON, with numbers
// kept exact, applies edit and re-encodes.
func editPlanJSON(t testing.TB, data []byte, edit func(plan map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var plan map[string]any
	if err := dec.Decode(&plan); err != nil {
		t.Fatal(err)
	}
	edit(plan)
	out, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// setAssignment overwrites fields of one call's stored assignment.
func setAssignment(plan map[string]any, call string, fields map[string]string) {
	a := plan["assignments"].(map[string]any)[call].(map[string]any)
	for k, v := range fields {
		a[k] = json.Number(v)
	}
}

// TestLoadExperimentBytesRejectsOverflow pins the stored-plan validation
// against integer wrap-around: a mesh whose first GPU sits near MaxInt (so
// mesh_first+mesh_count wraps negative) and a strategy whose dp·tp·pp wraps
// to exactly the mesh size both used to load with finite estimates — the
// first one then hung Run, since no device owned its calls.
func TestLoadExperimentBytesRejectsOverflow(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := fuzzPlanConfig(0)
	heur, err := p.Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := heur.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	for name, fields := range map[string]map[string]string{
		"mesh bounds":    {"mesh_first": "9223372036854775800", "mesh_count": "8"},
		"degree product": {"dp": "2305843009213693953", "tp": "8", "pp": "1"}, // 2^61+1
	} {
		bad := editPlanJSON(t, data, func(plan map[string]any) { setAssignment(plan, "actor/GENERATE", fields) })
		if _, err := p.LoadExperimentBytes(bad, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: LoadExperimentBytes = %v, want wrapped ErrInvalidConfig", name, err)
		}
	}
}

// FuzzLoadExperimentBytes: stored plan bytes are untrusted input (plan files,
// plans returned over the wire). Whatever the bytes, LoadExperimentBytes
// either fails with ErrInvalidConfig or returns a plan whose every mesh lies
// inside the cluster with each parallel degree at most the mesh size, and
// re-marshaling a loaded plan is a fixed point after one round.
func FuzzLoadExperimentBytes(f *testing.F) {
	p := NewPlanner(ClusterConfig{})
	f.Fuzz(func(t *testing.T, preset uint8, data []byte) {
		cfg := fuzzPlanConfig(preset)
		exp, err := p.LoadExperimentBytes(data, cfg)
		if err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("LoadExperimentBytes error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		gpus := exp.Cluster.NumGPUs()
		for name, a := range exp.Plan.Assign {
			m, s := a.Mesh, a.Strategy
			if m.First < 0 || m.Count < 1 || m.First > gpus-m.Count {
				t.Fatalf("call %s: mesh [%d,+%d) outside the %d-GPU cluster", name, m.First, m.Count, gpus)
			}
			for _, d := range []int{s.DP, s.TP, s.PP} {
				if d < 1 || d > m.Count {
					t.Fatalf("call %s: degree %d of %v outside [1, %d]", name, d, s, m.Count)
				}
			}
		}
		once, err := exp.MarshalPlan()
		if err != nil {
			t.Fatal(err)
		}
		again, err := p.LoadExperimentBytes(once, cfg)
		if err != nil {
			t.Fatalf("re-loading a marshaled plan: %v", err)
		}
		twice, err := again.MarshalPlan()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal→load is not a fixed point:\n%s\nvs\n%s", once, twice)
		}
	})
}
