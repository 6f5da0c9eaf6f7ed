// Package realhf is a Go reproduction of ReaL ("ReaL: Efficient RLHF
// Training of Large Language Models with Parameter Reallocation", MLSys
// 2025): an RLHF training system that searches for an execution plan —
// a device mesh and 3D-parallelization strategy per model function call,
// with parameters reallocated between calls — and executes it with a
// master/model-worker runtime engine.
//
// The public API mirrors the paper's user interface (Fig. 18): an
// experiment is a list of ModelFunctionCallDef values wired together by
// named data dependencies. A long-lived Planner session derives efficient
// execution plans via MCMC search over a profiling-backed cost model,
// reusing per-problem estimators, memoized cost caches and previously
// searched plans across requests, and Run executes the chosen plan. Physical GPUs
// are replaced by a calibrated analytic cluster model (see DESIGN.md);
// every system layer above the kernels — planner, estimator, reallocation,
// runtime protocol — runs for real.
//
//	planner := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 2})
//	exp, err := planner.Plan(ctx, realhf.ExperimentConfig{
//	    BatchSize: 512,
//	    PromptLen: 1024,
//	    GenLen:    1024,
//	    RPCs:      realhf.PPORPCs("llama7b", "llama7b-critic"),
//	})
//	report, err := exp.Run()
package realhf

import (
	"fmt"
	"math"
	"strings"
	"time"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// InterfaceType is the kind of computation a model function call performs.
// It travels as text (MarshalText/UnmarshalText in wire.go): JSON carries it
// as the string "GENERATE", "INFERENCE" or "TRAIN_STEP", decoded
// case-insensitively.
type InterfaceType int

// The three interface types of §2.1.
const (
	Generate InterfaceType = iota
	Inference
	TrainStep
)

func (t InterfaceType) String() string {
	switch t {
	case Generate:
		return "GENERATE"
	case Inference:
		return "INFERENCE"
	case TrainStep:
		return "TRAIN_STEP"
	}
	return fmt.Sprintf("InterfaceType(%d)", int(t))
}

// ModelFunctionCallDef declares one model function call, following the
// paper's Python API: models sharing ModelName share parameters; InputData
// names the data the call consumes and OutputData what it produces, which
// together induce the dataflow graph.
type ModelFunctionCallDef struct {
	// Name optionally overrides the call's display name; defaults to
	// "<ModelName>/<InterfaceType>".
	Name string `json:"name,omitempty"`
	// ModelName identifies the LLM ("actor", "critic", "ref", "reward").
	ModelName string `json:"model_name"`
	// ModelType names the architecture: "llama7b", "llama13b", "llama34b",
	// "llama70b", with an optional "-critic" suffix for scalar-head models.
	ModelType string `json:"model_type"`
	// InterfaceType selects generation, inference, or training.
	InterfaceType InterfaceType `json:"interface_type"`
	// InputData and OutputData wire the dataflow graph.
	InputData  []string `json:"input_data,omitempty"`
	OutputData []string `json:"output_data,omitempty"`
	// BatchScale multiplies the experiment's BatchSize for this call
	// (0 or 1 means unscaled). The algorithm presets use it where a
	// workflow inflates the sequence count per prompt: GRPO's grouped
	// generation processes BatchSize×GRPOGroupSize sequences, and DPO's calls
	// see both the chosen and rejected sequence of every preference pair.
	BatchScale int `json:"batch_scale,omitempty"`
	// MiniBatches overrides ExperimentConfig.MiniBatches for this TrainStep
	// call (0 keeps the experiment-wide default). DPO and ReMax train over
	// the full batch (MiniBatches = 1) while PPO defaults to 8.
	MiniBatches int `json:"mini_batches,omitempty"`
}

// batchScale is the factor the call scales BatchSize by: a BatchScale below
// 2 means unscaled.
func (r ModelFunctionCallDef) batchScale() int { return max(r.BatchScale, 1) }

// miniBatches is the call's mini-batch count under the experiment's dflt:
// only a TrainStep call reads MiniBatches, its own when positive, else dflt.
func (r ModelFunctionCallDef) miniBatches(dflt int) int {
	if r.InterfaceType != TrainStep {
		return 0
	}
	if r.MiniBatches > 0 {
		return r.MiniBatches
	}
	return dflt
}

// ExperimentConfig describes one RLHF experiment, the input to Planner.Plan.
// It is also the plan service's wire type: MarshalJSON emits the canonical
// defaults-applied form and UnmarshalJSON parses it back, round-tripping
// bit-stably through the config fingerprint (see wire.go).
type ExperimentConfig struct {
	// Nodes is the number of 8-GPU hosts (the paper's testbed shape), at
	// most 1,024.
	Nodes int `json:"nodes"`
	// GPUsPerNode overrides the default of 8. The cluster may hold at most
	// 8,192 GPUs in all.
	GPUsPerNode int `json:"gpus_per_node"`
	// BatchSize is the global number of prompts per iteration.
	BatchSize int `json:"batch_size"`
	// PromptLen and GenLen are per-sequence token counts.
	PromptLen int `json:"prompt_len"`
	GenLen    int `json:"gen_len"`
	// MiniBatches is the PPO mini-batch count for TrainStep calls
	// (default 8, after InstructGPT).
	MiniBatches int `json:"mini_batches"`
	// Iterations concatenates multiple RLHF iterations into one dataflow
	// graph (default 1), enabling cross-iteration overlap.
	Iterations int `json:"iterations"`
	// RPCs is the workflow definition.
	RPCs []ModelFunctionCallDef `json:"rpcs"`

	// SearchSteps bounds the MCMC search (default 4000; per chain when
	// SearchParallelism runs several).
	SearchSteps int `json:"search_steps"`
	// SearchTime optionally bounds search wall time instead.
	SearchTime time.Duration `json:"search_time_ns"`
	// Seed fixes the search RNG (default 1). A multi-chain search derives
	// per-chain seeds from it, and a fixed seed with a step-bounded search
	// reproduces the chosen plan byte for byte.
	Seed int64 `json:"seed"`
	// Solver selects the planning engine by registry name: "mcmc" (the
	// default Metropolis–Hastings walker of §5.2), "greedy" (the per-call
	// seed plan only), or "exhaustive" (the bounded brute-force reference
	// of Fig. 15; small problems only).
	Solver string `json:"solver"`
	// SearchParallelism is the number of concurrent MCMC chains, which
	// exchange their best plan periodically and otherwise share nothing:
	// each scores plans through its own incremental estimator session.
	// 0 and 1 both run the single sequential chain; the other solvers
	// ignore it.
	SearchParallelism int `json:"search_parallelism"`
	// PlanForOverlap makes the search score candidate plans under the
	// overlapped-engine cost semantics (estimator.Estimator.OverlapComm) —
	// the schedule the runtime executes under DefaultRunOptions — instead of
	// the historical fully-serialized objective. The returned Estimate then
	// predicts the overlapped iteration time. Default off: existing configs
	// keep their plans and estimates byte for byte. The flag is part of the
	// planner's problem and plan-cache keys, so serialized and overlap-aware
	// solves of one workload never share cost caches or cached plans.
	PlanForOverlap bool `json:"plan_for_overlap"`
	// OffloadSearch makes host offload a searched plan dimension
	// (search.Options.OffloadSearch): the solver explores parking frozen
	// models' parameters in host memory per call — the path to the paper's
	// 70B-on-one-node regime, which a fixed-offload search can never
	// discover. Like every solve, it treats the memory ledger as a hard
	// feasibility constraint. Default off: existing configs keep their
	// plans byte for byte. Like PlanForOverlap, the flag is part of the
	// planner's problem and plan-cache keys.
	OffloadSearch bool `json:"offload_search"`
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 8
	}
	if c.MiniBatches == 0 {
		c.MiniBatches = 8
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.SearchSteps == 0 && c.SearchTime == 0 {
		c.SearchSteps = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Solver == "" {
		c.Solver = "mcmc"
	}
	return c
}

// maxNodes and maxClusterGPUs bound the cluster a config may describe. The
// planner sizes per-GPU slices by the device count, and the whole-node mesh
// list grows with the square of the node count: a request past these caps
// could exhaust the process's memory before any search runs, while
// 1,024 × 8 GPUs plans in a fraction of a second.
const (
	maxNodes       = 1024
	maxClusterGPUs = 8192
)

// validate reports configuration errors. It is the single checker shared by
// every planning entry point — Planner.Plan, Heuristic, LoadExperiment and
// Train — so all of them reject a bad config with the same error, wrapping
// ErrInvalidConfig. Only checks that need no dataflow graph live here (a
// plan-cache hit runs them); an unknown model type or a repeated call name
// is found by buildGraph. Zero keeps its meaning for every field (a default,
// or no time bound); a negative size or search knob is rejected, since it
// would size slices, loops and stop tests with it, and so is a cluster past
// maxNodes or maxClusterGPUs.
func (c ExperimentConfig) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("realhf: Nodes must be positive: %w", ErrInvalidConfig)
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"GPUsPerNode", int64(c.GPUsPerNode)},
		{"BatchSize", int64(c.BatchSize)},
		{"PromptLen", int64(c.PromptLen)},
		{"GenLen", int64(c.GenLen)},
		{"MiniBatches", int64(c.MiniBatches)},
		{"Iterations", int64(c.Iterations)},
		{"SearchSteps", int64(c.SearchSteps)},
		{"SearchTime", int64(c.SearchTime)},
		{"SearchParallelism", int64(c.SearchParallelism)},
	} {
		if f.v < 0 {
			return fmt.Errorf("realhf: %s must not be negative, got %d: %w", f.name, f.v, ErrInvalidConfig)
		}
	}
	if c.Nodes > maxNodes {
		return fmt.Errorf("realhf: Nodes = %d exceeds the limit of %d: %w", c.Nodes, maxNodes, ErrInvalidConfig)
	}
	// Divide rather than multiply, so a huge GPUsPerNode cannot overflow.
	if c.GPUsPerNode > maxClusterGPUs/c.Nodes {
		return fmt.Errorf("realhf: Nodes × GPUsPerNode = %d × %d exceeds the limit of %d GPUs: %w",
			c.Nodes, c.GPUsPerNode, maxClusterGPUs, ErrInvalidConfig)
	}
	return nil
}

// PPORPCs returns the standard PPO workflow of Fig. 4: actor generation,
// reward/ref/critic inference, and actor/critic training.
func PPORPCs(actorType, criticType string) []ModelFunctionCallDef {
	return []ModelFunctionCallDef{
		{ModelName: "actor", ModelType: actorType, InterfaceType: Generate,
			InputData: []string{"prompts"}, OutputData: []string{"seq", "logp"}},
		{ModelName: "reward", ModelType: criticType, InterfaceType: Inference,
			InputData: []string{"seq"}, OutputData: []string{"r"}},
		{ModelName: "ref", ModelType: actorType, InterfaceType: Inference,
			InputData: []string{"seq"}, OutputData: []string{"ref_logp"}},
		{ModelName: "critic", ModelType: criticType, InterfaceType: Inference,
			InputData: []string{"seq"}, OutputData: []string{"v"}},
		{ModelName: "actor", ModelType: actorType, InterfaceType: TrainStep,
			InputData: []string{"seq", "logp", "ref_logp", "r", "v"}},
		{ModelName: "critic", ModelType: criticType, InterfaceType: TrainStep,
			InputData: []string{"seq", "r", "v", "ref_logp", "logp"}},
	}
}

// DPORPCs returns the DPO workflow of paper Fig. 16: reference inference
// over preference pairs feeding one actor training call — no generation, no
// critic. BatchSize counts preference pairs; both the chosen and rejected
// sequence of each pair pass through every call (BatchScale 2), and
// training runs over the full batch (MiniBatches 1).
func DPORPCs(actorType string) []ModelFunctionCallDef {
	return []ModelFunctionCallDef{
		{Name: "RefInf", ModelName: "ref", ModelType: actorType,
			InterfaceType: Inference, BatchScale: 2,
			InputData: []string{"pairs"}, OutputData: []string{"ref_logp"}},
		{Name: "ActorTrain", ModelName: "actor", ModelType: actorType,
			InterfaceType: TrainStep, BatchScale: 2, MiniBatches: 1,
			InputData: []string{"pairs", "ref_logp"}},
	}
}

// GRPOGroupSize is the per-prompt response-group size of the GRPO preset
// (8 in the paper).
const GRPOGroupSize = 8

// GRPORPCs returns the GRPO workflow of paper Fig. 16: grouped actor
// generation (GRPOGroupSize sampled responses per prompt) feeding reward and
// reference inference, then actor training over group-normalized advantages
// — GRPO has no critic. BatchSize counts prompts; every call processes
// BatchSize×GRPOGroupSize sequences, which the paper notes makes the
// workload compute-bounded and shrinks ReaL's relative gain.
func GRPORPCs(actorType, rewardType string) []ModelFunctionCallDef {
	return []ModelFunctionCallDef{
		{Name: "ActorGen", ModelName: "actor", ModelType: actorType,
			InterfaceType: Generate, BatchScale: GRPOGroupSize,
			InputData: []string{"prompts"}, OutputData: []string{"seq"}},
		{Name: "RewInf", ModelName: "reward", ModelType: rewardType,
			InterfaceType: Inference, BatchScale: GRPOGroupSize,
			InputData: []string{"seq"}, OutputData: []string{"r"}},
		{Name: "RefInf", ModelName: "ref", ModelType: actorType,
			InterfaceType: Inference, BatchScale: GRPOGroupSize,
			InputData: []string{"seq"}, OutputData: []string{"ref_logp"}},
		{Name: "ActorTrain", ModelName: "actor", ModelType: actorType,
			InterfaceType: TrainStep, BatchScale: GRPOGroupSize,
			InputData: []string{"seq", "r", "ref_logp"}},
	}
}

// ReMaxRPCs returns the ReMax workflow of paper Fig. 16: two independent
// generations (sampled and greedy) feed two reward inferences, and the
// training call consumes both rewards (the greedy one is the
// variance-reduction baseline). The two generation calls have no mutual
// dependency — the paper notes ReaL gains most on ReMax by running them
// concurrently on disjoint device meshes.
func ReMaxRPCs(actorType, rewardType string) []ModelFunctionCallDef {
	return []ModelFunctionCallDef{
		{Name: "SampleGen", ModelName: "actor", ModelType: actorType,
			InterfaceType: Generate,
			InputData:     []string{"prompts"}, OutputData: []string{"sample_seq"}},
		{Name: "GreedyGen", ModelName: "actor", ModelType: actorType,
			InterfaceType: Generate,
			InputData:     []string{"prompts"}, OutputData: []string{"greedy_seq"}},
		{Name: "SampleRew", ModelName: "reward", ModelType: rewardType,
			InterfaceType: Inference,
			InputData:     []string{"sample_seq"}, OutputData: []string{"sample_r"}},
		{Name: "GreedyRew", ModelName: "reward", ModelType: rewardType,
			InterfaceType: Inference,
			InputData:     []string{"greedy_seq"}, OutputData: []string{"greedy_r"}},
		{Name: "ActorTrain", ModelName: "actor", ModelType: actorType,
			InterfaceType: TrainStep, MiniBatches: 1,
			InputData: []string{"sample_seq", "sample_r", "greedy_r"}},
	}
}

// AlgoRPCs resolves an RLHF algorithm name ("ppo", "dpo", "grpo", "remax")
// to its workflow preset. criticType names the scalar-head model used for
// reward/critic roles and is ignored by DPO, which has neither.
func AlgoRPCs(algo, actorType, criticType string) ([]ModelFunctionCallDef, error) {
	switch algo {
	case "ppo":
		return PPORPCs(actorType, criticType), nil
	case "dpo":
		return DPORPCs(actorType), nil
	case "grpo":
		return GRPORPCs(actorType, criticType), nil
	case "remax":
		return ReMaxRPCs(actorType, criticType), nil
	}
	return nil, fmt.Errorf("realhf: unknown algorithm %q (have ppo, dpo, grpo, remax): %w", algo, ErrInvalidConfig)
}

// PaperExperiment returns the paper's base configuration (Appendix A, see
// dfg.PaperSpec: prompt 1024, generation 1024, 8 PPO mini-batches, and a
// weak-scaled batch of 512 prompts per 16 GPUs when batch is 0) on nodes
// 8-GPU hosts for the named algorithm. It is the config behind
// cmd/realsearch and cmd/realrun; tune the returned value freely.
func PaperExperiment(algo, actorType, criticType string, nodes, batch int) (ExperimentConfig, error) {
	rpcs, err := AlgoRPCs(algo, actorType, criticType)
	if err != nil {
		return ExperimentConfig{}, err
	}
	spec := dfg.PaperSpec(hardware.DefaultCluster(nodes).NumGPUs())
	if batch == 0 {
		batch = spec.Batch
	}
	return ExperimentConfig{
		Nodes: nodes, BatchSize: batch, PromptLen: spec.PromptLen, GenLen: spec.GenLen,
		MiniBatches: spec.MiniBatches, RPCs: rpcs,
	}, nil
}

// parseModelType resolves a ModelType string.
func parseModelType(s string) (model.Config, bool, error) {
	critic := strings.HasSuffix(s, "-critic")
	name := strings.TrimSuffix(s, "-critic")
	name = strings.TrimPrefix(name, "llama")
	cfg, err := model.ByName(name)
	if err != nil {
		return model.Config{}, false, fmt.Errorf("realhf: bad ModelType %q: %w: %w", s, err, ErrInvalidConfig)
	}
	return cfg, critic, nil
}

// callTypes translates each interface type into its dataflow call type.
var callTypes = map[InterfaceType]dfg.CallType{Generate: dfg.Generate, Inference: dfg.Inference, TrainStep: dfg.Train}

// buildGraph translates the RPC definitions into dfg calls, resolving each
// call's model type, role and workload, and lowers them with dfg.Lower. It
// also returns the model cast: one spec per role, trainable when any of the
// role's calls is a TrainStep.
func buildGraph(c ExperimentConfig) (*dfg.Graph, map[dfg.Role]core.ModelSpec, error) {
	if len(c.RPCs) == 0 {
		return nil, nil, fmt.Errorf("realhf: experiment has no RPCs: %w", ErrInvalidConfig)
	}
	models := map[dfg.Role]core.ModelSpec{}
	calls := make([]dfg.Call, len(c.RPCs))
	for i, rpc := range c.RPCs {
		cfg, critic, err := parseModelType(rpc.ModelType)
		if err != nil {
			return nil, nil, err
		}
		role := dfg.Role(rpc.ModelName)
		ms, ok := models[role]
		if !ok {
			ms = core.ModelSpec{Role: role, Cfg: cfg, IsCritic: critic}
		} else if ms.Cfg.Name != cfg.Name {
			return nil, nil, fmt.Errorf("realhf: model %q declared with types %q and %q: %w",
				rpc.ModelName, ms.Cfg.Name, cfg.Name, ErrInvalidConfig)
		}
		name := rpc.Name
		if name == "" {
			name = fmt.Sprintf("%s/%s", rpc.ModelName, rpc.InterfaceType)
		}
		typ, ok := callTypes[rpc.InterfaceType]
		if !ok {
			return nil, nil, fmt.Errorf("realhf: bad interface type %v: %w", rpc.InterfaceType, ErrInvalidConfig)
		}
		ms.Trainable = ms.Trainable || typ == dfg.Train
		models[role] = ms
		work := dfg.Workload{Batch: c.BatchSize * rpc.batchScale(), PromptLen: c.PromptLen, GenLen: c.GenLen,
			MiniBatches: rpc.miniBatches(c.MiniBatches)}
		calls[i] = dfg.Call{Name: name, Role: role, Type: typ, Work: work, Inputs: rpc.InputData, Outputs: rpc.OutputData}
	}
	g := dfg.Lower("custom", calls, c.Iterations)
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", err, ErrInvalidConfig)
	}
	return g, models, nil
}

// Experiment is a planned RLHF experiment ready to run.
type Experiment struct {
	Config  ExperimentConfig
	Cluster hardware.Cluster
	Plan    *core.Plan
	// Estimate is the planner's prediction for the chosen plan.
	Estimate *estimator.Result
	// SearchStats carries the solver's counters and convergence trace:
	// steps, acceptance, cost-cache hit rate, and per-chain breakdowns for
	// MCMC.
	SearchStats search.Stats
	// Cached reports that this experiment was answered from a Planner's
	// plan cache: Plan, Estimate and SearchStats were carried over from the
	// original solve of an equivalent config, and no search ran for this
	// request.
	Cached bool

	runOpts *RunOptions
}

// SavePlan writes the experiment's execution plan to a JSON file. Load it
// later with Planner.LoadExperiment to run the same plan without
// re-searching — the plan-once-run-many workflow.
func (e *Experiment) SavePlan(path string) error {
	return core.SavePlan(e.Plan, path)
}

// RunOptions configures plan execution — the public mirror of the runtime
// engine's options, plus optional overrides of the analytic cluster model
// for what-if runs (a slower fabric, higher latencies, less HBM).
type RunOptions struct {
	// UseCUDAGraph captures decoding kernels into CUDA graphs (Table 6's
	// ±CUDAGraph ablation).
	UseCUDAGraph bool
	// OverlapComm executes parameter reallocation, data transfer and
	// offload traffic on per-worker communication streams, overlapped with
	// computation (§6). Disabling it serializes every node per device —
	// the baseline side of the ±overlap ablation.
	OverlapComm bool

	// BandwidthScale, LatencyScale and MemoryScale override the cluster
	// model for this run only: interconnect bandwidths (NVLink, RoCE, PCIe),
	// communication latencies (per-hop and collective sync), and device HBM
	// capacity are multiplied by the respective factor. Zero means "leave
	// unchanged"; any other value must be positive and finite — Validate
	// (run by Run, RunWith and every option-accepting entry point) rejects
	// negative, NaN and infinite overrides with a wrapped
	// ErrInvalidRunOptions. RunWith, Train and ResumeTrain, which know the
	// cluster, also reject a scale that leaves device memory outside
	// 1..math.MaxInt64 bytes or a bandwidth below 1 byte/s. Planning is
	// unaffected: searched plans and estimates always describe the
	// unscaled cluster, which is exactly what makes a scaled run drift from
	// its estimate (and what a Trainer's profile feedback then calibrates
	// away).
	BandwidthScale float64
	LatencyScale   float64
	MemoryScale    float64

	// WorkerTimeout bounds every reply wait of a Trainer's worker fleets
	// (runtime.WorkerPool.SetWorkerTimeout): a fence drain or iteration
	// that sees no reply for this long gives up with a typed worker-lost
	// error (wrapping ErrWorkerLost) instead of hanging — the
	// failure-detection half of the resilience contract. Zero keeps the
	// conservative 2s default, since a session's pools may front real
	// remote fleets. One-shot Run and RunWith ignore it: their in-process
	// workers answer inside each dispatch, so they never wait. Negative
	// values are rejected by Validate.
	WorkerTimeout time.Duration
}

// Validate rejects malformed option values: each cluster override must be
// either 0 (unset) or a positive, finite multiplier. It is the single
// checker shared by every entry point that accepts RunOptions — Run and
// RunWith at execution time, WithRunOptions/WithTrainRunOptions at
// planning time — so all of them reject a bad value with the same wrapped
// error.
func (o RunOptions) Validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"BandwidthScale", o.BandwidthScale},
		{"LatencyScale", o.LatencyScale},
		{"MemoryScale", o.MemoryScale},
	} {
		if f.value == 0 {
			continue
		}
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) || f.value < 0 {
			return fmt.Errorf("realhf: %s = %v: %w (must be 0 to keep the default, or a positive finite multiplier)",
				f.name, f.value, ErrInvalidRunOptions)
		}
	}
	if o.WorkerTimeout < 0 {
		return fmt.Errorf("realhf: WorkerTimeout = %v: %w (must be 0 to keep the default, or a positive duration)",
			o.WorkerTimeout, ErrInvalidRunOptions)
	}
	return nil
}

// scalesCluster reports whether any cluster override is set.
func (o RunOptions) scalesCluster() bool {
	return o.BandwidthScale != 0 || o.LatencyScale != 0 || o.MemoryScale != 0
}

// scaleCluster applies the validated overrides to a copy of the cluster. A
// scale Validate accepts can still break the cluster it scales — device
// memory rounded down to nothing or past int64, a fabric slower than a
// byte per second — so the scaled cluster is checked here, and rejected
// with the same wrapped ErrInvalidRunOptions.
func (o RunOptions) scaleCluster(hw hardware.Cluster) (hardware.Cluster, error) {
	if s := o.BandwidthScale; s != 0 {
		hw.Net.IntraNodeBandwidth *= s
		hw.Net.InterNodeBandwidth *= s
		hw.Net.PCIeBandwidth *= s
		if bw := min(hw.Net.IntraNodeBandwidth, hw.Net.InterNodeBandwidth, hw.Net.PCIeBandwidth); bw < 1 {
			return hw, fmt.Errorf("realhf: BandwidthScale = %v leaves a %g bytes/s link: %w (every bandwidth must stay at least 1 byte/s)",
				s, bw, ErrInvalidRunOptions)
		}
	}
	if s := o.LatencyScale; s != 0 {
		hw.Net.IntraNodeLatency *= s
		hw.Net.InterNodeLatency *= s
		hw.Net.CollectiveSyncOverhead *= s
		hw.Net.PCIeLatency *= s
	}
	if s := o.MemoryScale; s != 0 {
		mem := float64(hw.GPU.MemoryBytes) * s
		if mem < 1 || mem >= math.MaxInt64 {
			return hw, fmt.Errorf("realhf: MemoryScale = %v leaves %s with %g bytes: %w (device memory must stay between 1 byte and math.MaxInt64)",
				s, hw.GPU.Name, mem, ErrInvalidRunOptions)
		}
		hw.GPU.MemoryBytes = int64(mem)
	}
	return hw, nil
}

// DefaultRunOptions is the paper's full runtime configuration: CUDA graphs
// and communication overlap both enabled.
func DefaultRunOptions() RunOptions {
	return RunOptions{UseCUDAGraph: true, OverlapComm: true}
}

// RunReport summarizes an executed experiment.
type RunReport struct {
	// IterationTime is the virtual wall time of one RLHF iteration.
	IterationTime float64
	// ThroughputPFLOPs is the paper's end-to-end metric.
	ThroughputPFLOPs float64
	// CallTimes breaks the iteration into per-call durations.
	CallTimes map[string]float64
	// CommTime is the total parameter-reallocation/data-transfer time
	// (spent, whether or not it was hidden behind computation).
	CommTime float64
	// OverlapComm echoes the option the run executed under.
	OverlapComm bool
	// OOM reports whether the plan ran out of device memory.
	OOM bool
	// Errors carries worker diagnostics for failed runs.
	Errors []string
}

// Run executes the experiment's plan on the simulated cluster through the
// runtime engine (master worker + per-GPU model workers). It uses the
// options bound by WithRunOptions at planning time, or DefaultRunOptions
// when none were set.
func (e *Experiment) Run() (*RunReport, error) {
	if e.runOpts != nil {
		return e.RunWith(*e.runOpts)
	}
	return e.RunWith(DefaultRunOptions())
}

// RunWith executes the experiment's plan under explicit run options.
func (e *Experiment) RunWith(opts RunOptions) (*RunReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	plan := e.Plan
	if opts.scalesCluster() {
		hw, err := opts.scaleCluster(plan.Cluster)
		if err != nil {
			return nil, err
		}
		plan = e.Plan.Clone()
		plan.Cluster = hw
	}
	rep, err := runtime.Run(plan, runtime.Options{
		UseCUDAGraph: opts.UseCUDAGraph,
		OverlapComm:  opts.OverlapComm,
	})
	if err != nil {
		return nil, err
	}
	out := &RunReport{
		IterationTime: rep.IterTime(),
		CallTimes:     rep.CallTimes,
		CommTime:      rep.CommTimeV,
		OverlapComm:   rep.OverlapComm,
		OOM:           rep.OOM,
		Errors:        rep.Errors,
	}
	if !rep.OOM {
		out.ThroughputPFLOPs = estimator.Throughput(e.Plan, rep.MakespanV)
	}
	return out, nil
}

// PlanTable renders the execution plan in the format of paper Tables 2–5,
// with estimated per-call durations.
func (e *Experiment) PlanTable() string {
	var times map[string]float64
	if e.Estimate != nil {
		times = e.Estimate.CallTimes
	}
	return e.Plan.Table(times)
}
