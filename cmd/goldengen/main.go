// Command goldengen regenerates testdata/golden_plans.txt: the pinned
// fingerprints of the seed-fixed, step-bounded MCMC solver plus the
// runtime engine's virtual timings (serialized and overlapped) for those
// plans and for a fixed reallocation-heavy placement. Each solve seeds its
// walk as every MCMC solve does (the cheapest of the greedy and
// REAL-Heuristic plans) and gets no caller seeds. A second section pins the
// same solves under the overlap-aware cost semantics
// (search.Problem.Overlap), so both search objectives are regression-gated.
//
// The file is a committed artifact. CI re-runs this tool and fails via
// `git diff --exit-code` if any fingerprint or virtual timing changed —
// plan-search and runtime regressions surface as diffs, and deliberate
// cost-model changes are recorded by regenerating the file in the same
// commit. The tool itself fails when a solved plan's runtime makespan
// differs from its estimate under the semantics it was solved with.
//
// Usage:
//
//	go run ./cmd/goldengen -out testdata/golden_plans.txt
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"strings"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/experiments"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// goldenSetting is the search tests' 2-node 7B+7B problem, so the
// fingerprints here cross-check TestGoldenSingleChainPlans. The
// offload-aware section solves experiments.OffloadProblem, the
// memory-constrained 4-GPU problem of TestOffloadSearchFindsFeasiblePlan.
var goldenSetting = experiments.Setting{
	Nodes: 2, Actor: model.LLaMA7B, Critic: model.LLaMA7B,
	Spec: dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1},
}

// splitPlan is the fixed reallocation-heavy placement (actor half / critic
// half with re-parallelized generation) whose overlapped run must beat the
// serialized baseline.
func splitPlan() (*core.Plan, error) {
	p := experiments.NewProblem(goldenSetting).EmptyPlan()
	m0, err := mesh.New(0, 8, 8)
	if err != nil {
		return nil, err
	}
	m1, err := mesh.New(8, 8, 8)
	if err != nil {
		return nil, err
	}
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	p.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	p.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}
	return p, p.Validate()
}

// checkAgreement fails unless the runtime executes a solved plan's estimate:
// the runtime runs the estimator's Algorithm 1 timeline, so under the
// semantics the plan was solved with, its makespan must equal the estimated
// time cost bit for bit.
func checkAgreement(sol search.Solution, overlap bool) error {
	rep, err := runtime.Run(sol.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: overlap})
	if err != nil {
		return err
	}
	if rep.MakespanV != sol.Estimate.TimeCost {
		return fmt.Errorf("runtime makespan %.9e differs from the estimate %.9e (overlap=%t)",
			rep.MakespanV, sol.Estimate.TimeCost, overlap)
	}
	return nil
}

// timelineHash folds a report's full timeline into one FNV-1a fingerprint:
// any reordering or retiming of any span changes it.
func timelineHash(rep *runtime.Report) uint64 {
	h := fnv.New64a()
	for _, s := range rep.Timeline {
		fmt.Fprintf(h, "%s|%d|%d|%d|%.9e|%.9e;", s.Label, s.Kind, s.Stream, s.Lane, s.StartV, s.EndV)
	}
	return h.Sum64()
}

// runBoth executes a plan serialized and overlapped and renders one golden
// line fragment. The overlapped makespan must never exceed the serialized
// one; on plans with communication it must be strictly lower.
func runBoth(p *core.Plan, requireStrict bool) (string, error) {
	serial, err := runtime.Run(p, runtime.Options{UseCUDAGraph: true})
	if err != nil {
		return "", err
	}
	over, err := runtime.Run(p, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		return "", err
	}
	if over.MakespanV > serial.MakespanV {
		return "", fmt.Errorf("overlapped makespan %.9e exceeds serialized %.9e", over.MakespanV, serial.MakespanV)
	}
	if requireStrict && !(over.MakespanV < serial.MakespanV) {
		return "", fmt.Errorf("overlap did not strictly improve a realloc-heavy plan (%.9e vs %.9e)",
			over.MakespanV, serial.MakespanV)
	}
	return fmt.Sprintf("serial=%.9e overlap=%.9e comm=%.9e tl_serial=%016x tl_overlap=%016x",
		serial.MakespanV, over.MakespanV, serial.CommTimeV,
		timelineHash(serial), timelineHash(over)), nil
}

func main() {
	log.SetFlags(0)
	out := flag.String("out", "testdata/golden_plans.txt", "output file")
	steps := flag.Int("steps", 600, "MCMC step bound for the pinned solves")
	flag.Parse()

	var b strings.Builder
	b.WriteString("# Golden execution plans and runtime timings.\n")
	b.WriteString("# Regenerate deliberately with: go run ./cmd/goldengen -out testdata/golden_plans.txt\n")
	b.WriteString("# CI re-runs the generator and fails on `git diff --exit-code testdata/`.\n")

	solve := func(pr *experiments.Problem, overlap bool, opt search.Options) search.Solution {
		sol, _, err := pr.Solve(overlap, opt)
		if err != nil {
			log.Fatal(err)
		}
		return sol
	}

	for _, seed := range []int64{1, 7, 42} {
		res := solve(experiments.NewProblem(goldenSetting), false, search.Options{MaxSteps: *steps, Seed: seed})
		if err := checkAgreement(res, false); err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		runs, err := runBoth(res.Plan, false)
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "mcmc seed=%d steps=%d cost=%.9e fp=%s %s\n",
			seed, *steps, res.Cost, res.Plan.Fingerprint(), runs)
	}

	split, err := splitPlan()
	if err != nil {
		log.Fatal(err)
	}
	runs, err := runBoth(split, true)
	if err != nil {
		log.Fatalf("split plan: %v", err)
	}
	fmt.Fprintf(&b, "split fp=%s %s\n", split.Fingerprint(), runs)

	// Overlap-aware section: the same seeds solved with candidates scored
	// under the overlapped-engine semantics (estimator.Estimator.OverlapComm
	// via search.Problem.Overlap). The serialized section above must stay
	// byte-identical — the knob defaults off.
	b.WriteString("# Overlap-aware search (candidates costed with estimator OverlapComm).\n")
	for _, seed := range []int64{1, 7, 42} {
		res := solve(experiments.NewProblem(goldenSetting), true, search.Options{MaxSteps: *steps, Seed: seed})
		if err := checkAgreement(res, true); err != nil {
			log.Fatalf("overlap-aware seed %d: %v", seed, err)
		}
		runs, err := runBoth(res.Plan, false)
		if err != nil {
			log.Fatalf("overlap-aware seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "mcmc-overlap seed=%d steps=%d cost=%.9e fp=%s %s\n",
			seed, *steps, res.Cost, res.Plan.Fingerprint(), runs)
	}

	// Offload-aware section: the memory-constrained 4-GPU problem solved
	// with per-call host offload as a searched dimension
	// (search.Options.OffloadSearch) and the memory ledger as a hard
	// constraint. The sections above must stay byte-identical — the knob
	// defaults off and touches no default-path RNG stream.
	b.WriteString("# Offload-aware search (host offload searched per call, memory as a hard constraint).\n")
	for _, seed := range []int64{1, 7, 42} {
		res := solve(experiments.OffloadProblem(), false,
			search.Options{MaxSteps: *steps, Seed: seed, OffloadSearch: true})
		if res.Estimate.OOM {
			log.Fatalf("offload-aware seed %d: chosen plan infeasible (max %d bytes)", seed, res.Estimate.MaxMem)
		}
		if err := checkAgreement(res, false); err != nil {
			log.Fatalf("offload-aware seed %d: %v", seed, err)
		}
		runs, err := runBoth(res.Plan, false)
		if err != nil {
			log.Fatalf("offload-aware seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "mcmc-offload seed=%d steps=%d cost=%.9e fp=%s %s\n",
			seed, *steps, res.Cost, res.Plan.Fingerprint(), runs)
	}

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
