package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// AblationRow compares the full planner against a constrained variant.
type AblationRow struct {
	Setting          string
	FullPFLOPs       float64
	ConstraintPFLOPs float64
	Advantage        float64 // (full-constrained)/constrained
}

// NoReallocSearch is the ablation the paper's Fig. 2 motivates but does not
// isolate: the best plan findable when every call of a model must use the
// model's single (mesh, strategy) assignment — i.e. parallelization can be
// tuned per model, calls of different models can run concurrently, but
// parameters are never reallocated between layouts. This is exactly the
// space prior asymmetric systems explore. The search is a role-level
// Metropolis–Hastings walk reusing the estimator.
func NoReallocSearch(pr *Problem, steps int, seed int64) (*core.Plan, float64, error) {
	// Role-level candidate sets: the intersection of each role's calls'
	// candidate spaces. We approximate by drawing from the first call's
	// space and validating the joint plan (invalid draws are rejected by
	// the estimator returning an error or by plan validation).
	roleCalls := map[string][]string{}
	for _, n := range pr.Graph.Calls() {
		roleCalls[string(n.Role)] = append(roleCalls[string(n.Role)], n.Name)
	}

	heur, err := pr.HeuristicPlan()
	if err != nil {
		return nil, 0, err
	}
	// The symmetric heuristic is itself realloc-free (one assignment
	// everywhere), so it seeds the chain.
	cur := heur.Clone()
	curRes, err := pr.Est.Evaluate(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestCost := cur.Clone(), curRes.Cost
	rng := rand.New(rand.NewSource(seed))

	// Build per-role candidate lists from mesh×strategy enumeration via the
	// existing per-call candidate machinery: use the heuristic plan's graph
	// and collect candidates of one representative call per role, then
	// filter to assignments valid for every call of that role.
	roles := make([]string, 0, len(roleCalls))
	for r := range roleCalls {
		roles = append(roles, r)
	}
	// Deterministic order.
	for i := 1; i < len(roles); i++ {
		for j := i; j > 0 && roles[j] < roles[j-1]; j-- {
			roles[j], roles[j-1] = roles[j-1], roles[j]
		}
	}

	cands := map[string][]core.Assignment{}
	for _, role := range roles {
		list := RoleCandidates(pr, role)
		if len(list) == 0 {
			return nil, 0, fmt.Errorf("experiments: role %q has no shared assignment", role)
		}
		cands[role] = list
	}

	beta := 10 / math.Max(curRes.Cost, 1e-9)
	curCost := curRes.Cost
	for step := 0; step < steps; step++ {
		role := roles[rng.Intn(len(roles))]
		next := cur.Clone()
		a := cands[role][rng.Intn(len(cands[role]))]
		for _, name := range roleCalls[role] {
			next.Assign[name] = a
		}
		if err := next.Validate(); err != nil {
			continue
		}
		res, err := pr.Est.Evaluate(next)
		if err != nil {
			continue
		}
		if res.Cost <= curCost || rng.Float64() < math.Exp(-beta*(res.Cost-curCost)) {
			cur, curCost = next, res.Cost
			if res.Cost < bestCost {
				best, bestCost = next, res.Cost
				beta = 10 / math.Max(bestCost, 1e-9)
			}
		}
	}
	return best, bestCost, nil
}

// RoleCandidates enumerates assignments legal for every call of a role: an
// assignment qualifies if the plan still validates with it applied to all of
// the role's calls.
func RoleCandidates(pr *Problem, role string) []core.Assignment {
	base, err := pr.HeuristicPlan()
	if err != nil {
		return nil
	}
	var names []string
	for _, n := range pr.Graph.Calls() {
		if string(n.Role) == role {
			names = append(names, n.Name)
		}
	}
	var out []core.Assignment
	for _, a := range EnumerateAssignments(pr.Cluster) {
		trial := base.Clone()
		for _, name := range names {
			trial.Assign[name] = a
		}
		if trial.Validate() == nil {
			out = append(out, a)
		}
	}
	return out
}

// EnumerateAssignments lists every legal (mesh, strategy, micro-batch)
// assignment of a cluster, independent of workload.
func EnumerateAssignments(hw hardware.Cluster) []core.Assignment {
	var out []core.Assignment
	for _, m := range mesh.Enumerate(hw) {
		maxTP := hw.GPUsPerNode
		if m.Count < maxTP {
			maxTP = m.Count
		}
		for _, st := range parallel.Enumerate(m.Count, maxTP, 64) {
			for _, mb := range []int{1, 2, 4, 8, 16} {
				out = append(out, core.Assignment{Mesh: m, Strategy: st.WithMicroBatches(mb)})
			}
		}
	}
	return out
}

// AblationNoRealloc quantifies parameter reallocation's contribution: the
// full search against the best realloc-free plan, across two representative
// settings.
func AblationNoRealloc(nodes, steps int) ([]AblationRow, string, error) {
	settings := []Setting{
		PaperSetting(nodes, model.LLaMA7B, model.LLaMA7B),
		PaperSetting(nodes, model.LLaMA13B, model.LLaMA7B),
	}
	var rows []AblationRow
	for i, s := range settings {
		pr := NewProblem(s)
		full, _, err := pr.SearchPlan(steps, int64(10+i))
		if err != nil {
			return nil, "", err
		}
		_, fullTP, err := pr.Measure(full.Plan)
		if err != nil {
			return nil, "", err
		}
		fixed, _, err := NoReallocSearch(pr, steps, int64(20+i))
		if err != nil {
			return nil, "", err
		}
		_, fixedTP, err := pr.Measure(fixed)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, AblationRow{
			Setting:          fmt.Sprintf("%s+%s/%dgpu", s.Actor.Name, s.Critic.Name, s.Nodes*8),
			FullPFLOPs:       fullTP,
			ConstraintPFLOPs: fixedTP,
			Advantage:        (fullTP - fixedTP) / fixedTP,
		})
	}
	var b strings.Builder
	b.WriteString(header("Ablation: parameter reallocation (full search vs one-layout-per-model)"))
	fmt.Fprintf(&b, "%-16s %12s %14s %10s\n", "Setting", "ReaL PF/s", "NoRealloc PF/s", "Advantage")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.2f %14.2f %+9.0f%%\n",
			r.Setting, r.FullPFLOPs, r.ConstraintPFLOPs, 100*r.Advantage)
	}
	return rows, b.String(), nil
}

// OverlapRow is one row of the ±overlap runtime ablation.
type OverlapRow struct {
	Setting string
	Plan    string // "searched" or "split"
	// SerialE2E and OverlapE2E are the end-to-end virtual times with the
	// runtime's communication overlap off and on.
	SerialE2E, OverlapE2E float64
	// CommTimeV is the total reallocation/transfer/offload time spent.
	CommTimeV float64
	// HiddenFrac is the fraction of CommTimeV the overlapped engine hid
	// behind computation: (serial - overlap) / comm.
	HiddenFrac float64
}

// AblationOverlap quantifies the runtime engine's communication overlap
// (§6): for each setting it executes both a searched plan and the
// reallocation-heavy split placement with the comm stream disabled and
// enabled. The overlapped makespan can never exceed the serialized one, and
// on reallocation-heavy plans it is strictly lower — the Table-6-style
// ±overlap comparison.
func AblationOverlap(nodes, steps int) ([]OverlapRow, string, error) {
	settings := []Setting{
		PaperSetting(nodes, model.LLaMA7B, model.LLaMA7B),
		PaperSetting(nodes, model.LLaMA13B, model.LLaMA7B),
	}
	var rows []OverlapRow
	for i, s := range settings {
		pr := NewProblem(s)
		searched, _, err := pr.SearchPlan(steps, int64(30+i))
		if err != nil {
			return nil, "", err
		}
		split, err := splitPlan(pr)
		if err != nil {
			return nil, "", err
		}
		// Re-parallelize generation on its half so the split plan carries
		// real parameter-reallocation traffic (the role-uniform split only
		// moves activations).
		if a, ok := split.Assign["ActorGen"]; ok {
			gen := a
			gen.Strategy = parallel.Strategy{
				DP: a.Mesh.NumGPUs() / 2, TP: 2, PP: 1, MicroBatches: 1,
			}
			trial := split.Clone()
			trial.Assign["ActorGen"] = gen
			if trial.Validate() == nil {
				split = trial
			}
		}
		for _, cand := range []struct {
			name string
			plan *core.Plan
		}{{"searched", searched.Plan}, {"split", split}} {
			serial, err := runtime.Run(cand.plan, runtime.Options{UseCUDAGraph: true})
			if err != nil {
				return nil, "", err
			}
			over, err := runtime.Run(cand.plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
			if err != nil {
				return nil, "", err
			}
			row := OverlapRow{
				Setting:    fmt.Sprintf("%s+%s/%dgpu", s.Actor.Name, s.Critic.Name, s.Nodes*8),
				Plan:       cand.name,
				SerialE2E:  serial.MakespanV,
				OverlapE2E: over.MakespanV,
				CommTimeV:  serial.CommTimeV,
			}
			if row.CommTimeV > 0 {
				row.HiddenFrac = (row.SerialE2E - row.OverlapE2E) / row.CommTimeV
			}
			rows = append(rows, row)
		}
	}
	var b strings.Builder
	b.WriteString(header("Ablation: runtime communication overlap (±OverlapComm)"))
	fmt.Fprintf(&b, "%-16s %-9s %10s %10s %9s %8s\n",
		"Setting", "Plan", "Serial(s)", "Overlap(s)", "Comm(s)", "Hidden")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-9s %10.1f %10.1f %9.1f %7.0f%%\n",
			r.Setting, r.Plan, r.SerialE2E, r.OverlapE2E, r.CommTimeV, 100*r.HiddenFrac)
	}
	return rows, b.String(), nil
}

// splitPlan assigns actor-side calls (actor + ref) to the first half of the
// cluster and critic-side calls (critic + reward) to the second half — the
// layout whose cross-iteration overlap the concatenated graph can exploit:
// CriticTrain of iteration t runs concurrently with ActorGen of t+1.
func splitPlan(pr *Problem) (*core.Plan, error) {
	hw := pr.Cluster
	half := hw.NumGPUs() / 2
	m0, err := mesh.New(0, half, hw.GPUsPerNode)
	if err != nil {
		return nil, err
	}
	m1, err := mesh.New(half, hw.NumGPUs()-half, hw.GPUsPerNode)
	if err != nil {
		return nil, err
	}
	p := pr.EmptyPlan()
	for _, n := range pr.Graph.Calls() {
		m := m1
		if n.Role == "actor" || n.Role == "ref" {
			m = m0
		}
		tp := hw.GPUsPerNode
		if tp > m.NumGPUs() {
			tp = m.NumGPUs()
		}
		st := parallel.Strategy{DP: m.NumGPUs() / tp, TP: tp, PP: 1, MicroBatches: 4}
		p.Assign[n.Name] = core.Assignment{Mesh: m, Strategy: st}
	}
	return p, p.Validate()
}

// OverlapSearchRow is one row of the search-side ±overlap ablation: the
// same workload planned under serialized vs overlapped cost semantics, with
// both chosen plans executed on the overlapped runtime.
type OverlapSearchRow struct {
	Setting string
	// SerialSearchedE2E and OverlapSearchedE2E are the overlapped-runtime
	// makespans of the plan searched under serialized costs and of the plan
	// searched under overlapped costs.
	SerialSearchedE2E, OverlapSearchedE2E float64
	// SamePlan reports that both searches chose the identical plan — the
	// knob cannot help when the serialized optimum already overlaps best.
	SamePlan bool
	// Gain is (serial-searched − overlap-searched) / serial-searched.
	Gain float64
}

// AblationOverlapSearch quantifies the objective mismatch the
// PlanForOverlap knob closes: since PR 2 the runtime executes overlapped by
// default, yet a serialized-cost search minimizes the wrong makespan. For
// each setting it searches the plan space twice — once under each cost
// semantics, same seed and step budget — and executes both winners on the
// overlapped runtime. The overlap-aware solve warm-starts from the
// serialized winner (on top of the solver's own seeds), so its
// overlapped-cost *estimate* can only match or beat the serialized
// winner's; on the paper workloads the overlapped runtime agrees.
func AblationOverlapSearch(nodes, steps int) ([]OverlapSearchRow, string, error) {
	settings := []Setting{
		PaperSetting(nodes, model.LLaMA7B, model.LLaMA7B),
		PaperSetting(nodes, model.LLaMA13B, model.LLaMA7B),
	}
	var rows []OverlapSearchRow
	for i, s := range settings {
		pr := NewProblem(s)
		seed := int64(50 + i)
		serial, _, err := pr.SearchPlan(steps, seed)
		if err != nil {
			return nil, "", err
		}
		over, _, err := pr.Solve(true, search.Options{
			MaxSteps: steps, Seed: seed, SeedCandidates: []*core.Plan{serial.Plan},
		})
		if err != nil {
			return nil, "", err
		}
		sRep, err := runtime.Run(serial.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			return nil, "", err
		}
		oRep, err := runtime.Run(over.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			return nil, "", err
		}
		row := OverlapSearchRow{
			Setting:            fmt.Sprintf("%s+%s/%dgpu", s.Actor.Name, s.Critic.Name, s.Nodes*8),
			SerialSearchedE2E:  sRep.MakespanV,
			OverlapSearchedE2E: oRep.MakespanV,
			SamePlan:           serial.Plan.Fingerprint() == over.Plan.Fingerprint(),
		}
		if row.SerialSearchedE2E > 0 {
			row.Gain = (row.SerialSearchedE2E - row.OverlapSearchedE2E) / row.SerialSearchedE2E
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(header("Ablation: overlap-aware search (plans searched under serialized vs overlapped costs, both run overlapped)"))
	fmt.Fprintf(&b, "%-16s %16s %16s %8s %9s\n",
		"Setting", "SerialSearch(s)", "OverlapSearch(s)", "Gain", "SamePlan")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %16.1f %16.1f %+7.1f%% %9v\n",
			r.Setting, r.SerialSearchedE2E, r.OverlapSearchedE2E, 100*r.Gain, r.SamePlan)
	}
	return rows, b.String(), nil
}

// OffloadProblem is the memory-constrained single-node workload of the
// offload ablation: 7B trainable actor/critic plus 34B frozen ref/reward on
// 1 node × 4 GPUs (320 GB HBM total), a cast and cluster shape Setting
// cannot express. The training state alone costs ~56 GB/GPU; keeping the
// frozen resting copies on-device adds ~34 GB/GPU more, so every
// residency-fixed plan overflows the 80 GB devices — only a plan that parks
// the frozen weights in host memory can be feasible.
func OffloadProblem() *Problem {
	s := Setting{
		Nodes: 1, Actor: model.LLaMA7B, Critic: model.LLaMA7B,
		Spec: dfg.Spec{Batch: 64, PromptLen: 256, GenLen: 256, MiniBatches: 8, Iterations: 1},
	}
	hw := hardware.DefaultCluster(1)
	hw.GPUsPerNode = 4
	models := core.PPOModels(s.Actor, s.Critic)
	for _, role := range []dfg.Role{dfg.Ref, dfg.Reward} {
		ms := models[role]
		ms.Cfg = model.LLaMA34B
		models[role] = ms
	}
	return newProblem(s, hw, models)
}

// OffloadRow summarizes the offload ablation: the default (residency-fixed)
// search optimum vs the offload-aware one on the memory-constrained
// workload.
type OffloadRow struct {
	Setting string
	// DefaultMaxMemGB/OffloadMaxMemGB are the peak per-GPU demands of the
	// two chosen plans; DefaultOOM/OffloadOOM whether each fits HBM.
	DefaultMaxMemGB, OffloadMaxMemGB float64
	DefaultOOM, OffloadOOM           bool
	// OffloadedCalls counts calls the offload-aware plan parks in host
	// memory between uses.
	OffloadedCalls int
	// E2E is the offload-aware plan's makespan on the simulated runtime.
	E2E float64
}

// AblationOffload demonstrates the searched offload dimension end to end:
// on the OffloadProblem workload the default search can only return an
// infeasible optimum (every residency-fixed plan overflows HBM), while the
// offload-aware search — same seed, same step budget — finds a feasible
// plan and the runtime executes it. Both solves are step-bounded and
// seeded, so the report is byte-reproducible.
func AblationOffload(steps int) (OffloadRow, string, error) {
	pr := OffloadProblem()
	const seed = 60
	def, _, err := pr.SearchPlan(steps, seed)
	if err != nil {
		return OffloadRow{}, "", err
	}
	off, _, err := pr.Solve(false, search.Options{MaxSteps: steps, Seed: seed, OffloadSearch: true})
	if err != nil {
		return OffloadRow{}, "", err
	}
	row := OffloadRow{
		Setting: fmt.Sprintf("%s+%s/ref+rw %s/%dgpu",
			pr.Setting.Actor.Name, pr.Setting.Critic.Name, pr.Models["ref"].Cfg.Name, pr.Cluster.NumGPUs()),
		DefaultMaxMemGB: gb(def.Estimate.MaxMem),
		OffloadMaxMemGB: gb(off.Estimate.MaxMem),
		DefaultOOM:      def.Estimate.OOM,
		OffloadOOM:      off.Estimate.OOM,
	}
	for _, a := range off.Plan.Assign {
		if a.Offload {
			row.OffloadedCalls++
		}
	}
	if !off.Estimate.OOM {
		rep, _, err := pr.Measure(off.Plan)
		if err != nil {
			return OffloadRow{}, "", err
		}
		row.E2E = rep.MakespanV
	}
	var b strings.Builder
	b.WriteString(header("Ablation: offload as a searched plan dimension (memory-constrained 4-GPU node)"))
	fmt.Fprintf(&b, "%-28s %14s %6s %14s %6s %9s %8s\n",
		"Setting", "DefaultMem(GB)", "OOM", "OffloadMem(GB)", "OOM", "Offloaded", "E2E(s)")
	fmt.Fprintf(&b, "%-28s %14.1f %6v %14.1f %6v %9d %8.1f\n",
		row.Setting, row.DefaultMaxMemGB, row.DefaultOOM,
		row.OffloadMaxMemGB, row.OffloadOOM, row.OffloadedCalls, row.E2E)
	return row, b.String(), nil
}

// AblationCrossIter quantifies the §4 remark that concatenating iterations
// in one dataflow graph lets independent work overlap across iteration
// boundaries: with actor and critic resources split, CriticTrain of
// iteration t overlaps ActorGen of iteration t+1, so a 2-iteration graph
// needs less than 2× the single-iteration time under the same plan.
func AblationCrossIter(s Setting, steps int) (single, double float64, report string, err error) {
	_ = steps
	s1 := s
	s1.Iterations = 1
	pr1 := NewProblem(s1)
	plan1, err := splitPlan(pr1)
	if err != nil {
		return 0, 0, "", err
	}
	rep1, err := runtime.Run(plan1, runtime.Options{UseCUDAGraph: true})
	if err != nil {
		return 0, 0, "", err
	}

	s2 := s
	s2.Iterations = 2
	pr2 := NewProblem(s2)
	plan2, err := splitPlan(pr2)
	if err != nil {
		return 0, 0, "", err
	}
	rep2, err := runtime.Run(plan2, runtime.Options{UseCUDAGraph: true})
	if err != nil {
		return 0, 0, "", err
	}

	single, double = rep1.MakespanV, rep2.MakespanV
	var b strings.Builder
	b.WriteString(header("Ablation: cross-iteration overlap on the concatenated graph"))
	fmt.Fprintf(&b, "1 iteration:   %8.1fs\n", single)
	fmt.Fprintf(&b, "2 iterations:  %8.1fs (%.2fx; overlap saves %.1fs)\n",
		double, double/single, 2*single-double)
	return single, double, b.String(), nil
}
