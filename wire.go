package realhf

// The JSON wire codec: ExperimentConfig and ClusterConfig marshal to their
// canonical, defaults-applied form and unmarshal strictly, and execution
// plans travel as the SavePlan serialization. The contract the plan service
// (internal/serve) is built on:
//
//	json.Marshal(cfg) == json.Marshal(decode(json.Marshal(cfg)))
//
// and decode(json.Marshal(cfg)) has the same problemKey and fingerprint as
// cfg.withDefaults() — bit-stably, so a config that crosses the wire any
// number of times keys the same plan cache, cost cache and coalescing
// flight as the original.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// interfaceTypeNames mirrors InterfaceType.String; the wire format uses the
// paper's names, not Go enum ordinals, so stored configs survive enum
// reordering.
var interfaceTypeNames = map[string]InterfaceType{
	"GENERATE":   Generate,
	"INFERENCE":  Inference,
	"TRAIN_STEP": TrainStep,
}

// MarshalText encodes the interface type by name ("GENERATE", "INFERENCE",
// "TRAIN_STEP"), which JSON carries as a string. An out-of-range value wraps
// ErrInvalidConfig.
func (t InterfaceType) MarshalText() ([]byte, error) {
	switch t {
	case Generate, Inference, TrainStep:
		return []byte(t.String()), nil
	}
	return nil, fmt.Errorf("realhf: cannot marshal %v: %w", t, ErrInvalidConfig)
}

// UnmarshalText decodes an interface type name, case-insensitively; an
// unknown name wraps ErrInvalidConfig. Being a text codec, it is reached
// only for JSON strings: encoding/json answers any other value with its own
// *json.UnmarshalTypeError (which ExperimentConfig.UnmarshalJSON wraps in
// ErrInvalidConfig) and leaves the field unchanged for null, as it does for
// every other scalar config field.
func (t *InterfaceType) UnmarshalText(text []byte) error {
	v, ok := interfaceTypeNames[string(text)]
	if !ok {
		v, ok = interfaceTypeNames[strings.ToUpper(string(text))]
	}
	if !ok {
		return fmt.Errorf("realhf: unknown interface type %q (have GENERATE, INFERENCE, TRAIN_STEP): %w",
			text, ErrInvalidConfig)
	}
	*t = v
	return nil
}

// experimentConfigWire drops ExperimentConfig's methods so the codec can
// reuse the stock struct encoding without recursing.
type experimentConfigWire ExperimentConfig

// MarshalJSON emits the canonical wire form: package defaults applied
// (withDefaults — session defaults like ClusterConfig.Nodes are a Planner
// property, applied by Canonicalize), every fingerprint-relevant field
// present, SearchTime in integer nanoseconds. Marshaling is stable: two
// configs with equal canonical forms produce byte-identical JSON.
func (c ExperimentConfig) MarshalJSON() ([]byte, error) {
	return json.Marshal(experimentConfigWire(c.withDefaults()))
}

// UnmarshalJSON decodes a config strictly: unknown fields are rejected (a
// typoed search knob must not silently plan a different experiment), with
// every decode error wrapping ErrInvalidConfig. It is the exact inverse of
// MarshalJSON — decoding canonical bytes yields a config whose problemKey
// and fingerprint match the original's bit for bit — but does not itself
// apply defaults, so sparse hand-written JSON behaves like the equivalent
// Go literal.
//
// It serves every decoder that meets a bare config, and it runs a second,
// nested decoder over bytes the enclosing one has already scanned. The plan
// service's request and response decoders avoid that pass: they decode the
// config as a method-free copy of this struct inside their own strict
// decoder, which checks it for unknown fields in the same pass
// (internal/serve's configWire).
func (c *ExperimentConfig) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w experimentConfigWire
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("realhf: decode experiment config: %w: %w", err, ErrInvalidConfig)
	}
	*c = ExperimentConfig(w)
	return nil
}

// Fingerprint returns the config's canonical fingerprint: defaults are
// applied first, so every zero field and its explicit default value
// fingerprint identically, and two configs with equal fingerprints request
// the same deterministic solve. It is the Planner's plan-cache key and the
// plan service's singleflight coalescing key (session defaults such as
// ClusterConfig.Nodes are applied by Planner.Canonicalize before
// fingerprinting).
func (c ExperimentConfig) Fingerprint() string {
	return c.withDefaults().fingerprint()
}

// clusterConfigWire mirrors experimentConfigWire for ClusterConfig.
type clusterConfigWire ClusterConfig

// MarshalJSON emits the canonical session config: cache-capacity defaults
// applied, exactly what NewPlanner would run with.
func (cc ClusterConfig) MarshalJSON() ([]byte, error) {
	return json.Marshal(clusterConfigWire(cc.withDefaults()))
}

// UnmarshalJSON decodes a session config strictly, wrapping
// ErrInvalidConfig on malformed input.
func (cc *ClusterConfig) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w clusterConfigWire
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("realhf: decode cluster config: %w: %w", err, ErrInvalidConfig)
	}
	*cc = ClusterConfig(w)
	return nil
}

// MarshalPlan serializes the experiment's execution plan — the same bytes
// SavePlan writes to disk and the plan service returns over the wire. Feed
// them to Planner.LoadExperimentBytes (with the experiment's config) to
// rebuild a runnable Experiment.
//
// Only the plan travels: the config, estimator and diagnostics are
// reconstructed on load from the caller-supplied ExperimentConfig, so the
// other Experiment fields are deliberately outside these bytes.
//
//lint:realvet fieldcover -- plan-only wire format; the config side travels separately via ExperimentConfig's canonical JSON
func (e *Experiment) MarshalPlan() ([]byte, error) {
	return e.Plan.MarshalJSON()
}

// LoadExperimentBytes rebuilds a runnable Experiment from plan bytes
// produced by Experiment.MarshalPlan (equivalently: the contents of a
// SavePlan file, or a plan service response) — the in-memory twin of
// LoadExperiment. cfg reconstructs the dataflow graph and cost model; the
// stored cluster shape and model cast must agree with it.
func (p *Planner) LoadExperimentBytes(data []byte, cfg ExperimentConfig) (*Experiment, error) {
	return p.loadExperiment(data, "plan bytes", cfg)
}
