// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated cluster: end-to-end baseline comparisons,
// heuristic comparisons across context lengths, progressive-optimization
// breakdowns, kernel traces, GPU-time decompositions, estimator/profiler
// studies, search ablations, beyond-PPO algorithms, and strong scaling.
// cmd/realbench runs each of them by name; DESIGN.md describes the
// subsystems they exercise. Searches run through Problem.Solve, whose MCMC
// walk seeds itself exactly as a Planner solve does (the cheaper of the
// greedy and REAL-Heuristic plans); the baseline placements the figures
// compare against are measured, never used as seeds.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// Setting is one PPO experiment instance: a cluster scale, a model pair, and
// the workload of the Fig. 4 graph.
type Setting struct {
	Nodes  int
	Actor  model.Config
	Critic model.Config
	dfg.Spec
}

// PaperSetting returns the paper's base configuration (dfg.PaperSpec,
// Appendix A) at the given scale.
func PaperSetting(nodes int, actor, critic model.Config) Setting {
	s := Setting{Nodes: nodes, Actor: actor, Critic: critic}
	s.Spec = dfg.PaperSpec(s.Cluster().NumGPUs())
	return s
}

// WithContext rescales the setting to a different context length at a fixed
// token budget, as the paper does for the 8192-token experiments (batch
// shrinks by the same factor the context grows).
func (s Setting) WithContext(ctx int) Setting {
	oldCtx := s.PromptLen + s.GenLen
	s.Batch = s.Batch * oldCtx / ctx
	if s.Batch < 8 {
		s.Batch = 8
	}
	s.PromptLen = 1024
	s.GenLen = ctx - s.PromptLen
	return s
}

// Cluster returns the hardware model at this setting's scale.
func (s Setting) Cluster() hardware.Cluster { return hardware.DefaultCluster(s.Nodes) }

// Graph builds the setting's PPO dataflow graph.
func (s Setting) Graph() *dfg.Graph { return dfg.BuildPPO(s.Spec) }

// Problem bundles everything needed to plan and run a setting.
type Problem struct {
	Setting Setting
	Cluster hardware.Cluster
	Graph   *dfg.Graph
	Models  map[dfg.Role]core.ModelSpec
	Est     *estimator.Estimator
}

// NewProblem materializes a setting with the ground-truth (oracle)
// estimator.
func NewProblem(s Setting) *Problem {
	return newProblem(s, s.Cluster(), core.PPOModels(s.Actor, s.Critic))
}

// newProblem materializes a setting on an explicit cluster and model cast.
func newProblem(s Setting, hw hardware.Cluster, models map[dfg.Role]core.ModelSpec) *Problem {
	return &Problem{
		Setting: s, Cluster: hw, Graph: s.Graph(), Models: models,
		Est: estimator.NewOracle(hw, models, true),
	}
}

// EmptyPlan returns an unassigned plan for the problem.
func (pr *Problem) EmptyPlan() *core.Plan {
	return core.NewPlan(pr.Cluster, pr.Graph, pr.Models)
}

// SearchProblem bundles the problem for the search package's Solver
// interface. overlap=true makes solvers score candidates with the
// overlapped-engine estimator (estimator.Estimator.OverlapComm), the
// schedule the runtime executes with communication streams enabled, instead
// of the historical serialized one.
func (pr *Problem) SearchProblem(overlap bool) search.Problem {
	return search.Problem{Est: pr.Est, Plan: pr.EmptyPlan(), Overlap: overlap}
}

// Solve runs the MCMC solver over the problem under the chosen cost
// semantics. The solver seeds itself (greedy and REAL-Heuristic plans), so
// opt.SeedCandidates carries only plans the caller already holds.
func (pr *Problem) Solve(overlap bool, opt search.Options) (search.Solution, search.Stats, error) {
	return search.Solve(context.Background(), "mcmc", pr.SearchProblem(overlap), opt)
}

// SearchPlan is the serialized Solve with a fixed step budget and seed.
func (pr *Problem) SearchPlan(steps int, seed int64) (search.Solution, search.Stats, error) {
	return pr.Solve(false, search.Options{MaxSteps: steps, Seed: seed})
}

// HeuristicPlan builds the REAL-Heuristic baseline plan.
func (pr *Problem) HeuristicPlan() (*core.Plan, error) {
	return baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
}

// Measure executes a plan on the simulated cluster and returns the run
// report plus its per-iteration throughput in PFLOP/s. Runs that hit OOM
// report zero throughput — the paper plots such configurations as failures.
// The schedule is the serialized baseline; MeasureWith exposes the ±overlap
// knob.
func (pr *Problem) Measure(p *core.Plan) (*runtime.Report, float64, error) {
	return pr.MeasureWith(p, runtime.Options{UseCUDAGraph: true})
}

// MeasureWith is Measure under explicit runtime options (e.g. OverlapComm
// for the overlapped engine of §6).
func (pr *Problem) MeasureWith(p *core.Plan, opts runtime.Options) (*runtime.Report, float64, error) {
	rep, err := runtime.Run(p, opts)
	if err != nil {
		return nil, 0, err
	}
	if rep.OOM {
		return rep, 0, nil
	}
	tp := estimator.Throughput(p, rep.MakespanV)
	return rep, tp, nil
}

// row formatting helpers shared by the figure reports.

func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }
