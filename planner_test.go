package realhf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"realhf/internal/checkpoint"
	"realhf/internal/dfg"
	"realhf/internal/search"
)

func plannerConfig(seed int64, steps int) ExperimentConfig {
	return ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: steps, Seed: seed,
	}
}

func TestPlannerPlanCacheHitDeterminism(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(3, 200)

	first, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request must run a solve, not hit the cache")
	}
	second, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeated config must be answered from the plan cache")
	}
	if second.Plan.Fingerprint() != first.Plan.Fingerprint() {
		t.Error("cached plan fingerprint differs from the original solve")
	}
	if second.Estimate.Cost != first.Estimate.Cost {
		t.Error("cached estimate differs from the original solve")
	}

	// An equivalent config — zero values that withDefaults resolves to the
	// same canonical request — must hit the same cache entry.
	equiv := cfg
	equiv.GPUsPerNode = 8 // default
	equiv.Solver = "mcmc" // default
	third, err := p.Plan(context.Background(), equiv)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Plan.Fingerprint() != first.Plan.Fingerprint() {
		t.Error("equivalent config must hit the plan cache with an identical plan")
	}

	// The cached plan must equal a fresh solve by an unrelated session.
	fresh, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Plan.Fingerprint() != first.Plan.Fingerprint() {
		t.Error("cached plan fingerprint differs from a freshly solved one")
	}

	st := p.Stats()
	if st.PlanRequests != 3 || st.PlanCacheHits != 2 || st.PlanCacheMisses != 1 {
		t.Errorf("stats = %+v, want 3 requests, 2 hits, 1 miss", st)
	}
	if st.Problems != 1 {
		t.Errorf("one problem planned, %d cost caches live", st.Problems)
	}
}

// TestPlannerConcurrentPlan hammers one session from many goroutines with a
// mix of identical and distinct configs; run under -race in CI. Every
// response for one config must carry the same plan fingerprint whether it
// was solved or served from cache.
func TestPlannerConcurrentPlan(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfgs := []ExperimentConfig{
		plannerConfig(1, 120),
		plannerConfig(9, 120), // same problem, different chain
		plannerConfig(1, 120), // identical to cfgs[0]
		{Nodes: 1, BatchSize: 32, PromptLen: 256, GenLen: 256, // distinct problem
			RPCs: DPORPCs("llama7b"), SearchSteps: 120, Seed: 5},
	}
	const goroutines = 8
	const iters = 3

	var mu sync.Mutex
	got := map[int]map[string]bool{} // config index -> fingerprints seen
	var wg sync.WaitGroup
	var firstErr error
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				idx := (g + i) % len(cfgs)
				exp, err := p.Plan(context.Background(), cfgs[idx])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					if got[idx] == nil {
						got[idx] = map[string]bool{}
					}
					got[idx][exp.Plan.Fingerprint()] = true
				}
				mu.Unlock()
				// Heuristic shares the session estimator and cost cache.
				if _, err := p.Heuristic(cfgs[idx]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for idx, fps := range got {
		if len(fps) != 1 {
			t.Errorf("config %d produced %d distinct plans: %v", idx, len(fps), fps)
		}
	}
	// cfgs[0] and cfgs[2] are byte-equal requests: one plan between them.
	for fp := range got[0] {
		if !got[2][fp] {
			t.Error("identical configs resolved to different plans")
		}
	}
	if st := p.Stats(); st.PlanCacheHits == 0 {
		t.Errorf("hammer saw no plan-cache hits: %+v", st)
	}
}

func TestPlannerCancellationMidSearch(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := ExperimentConfig{
		Nodes: 2, BatchSize: 256, PromptLen: 512, GenLen: 512,
		RPCs: PPORPCs("llama7b", "llama7b-critic"),
		// Far more steps than can finish before the cancel fires.
		SearchSteps: 50_000_000, Seed: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.Plan(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Plan returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error %q should say the solve was cancelled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled Plan took %v to return", elapsed)
	}
	// A failed solve must be neither cached nor counted as a solve.
	if st := p.Stats(); st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 {
		t.Errorf("cancelled request polluted the counters: %+v", st)
	}

	// An already-expired deadline fails before any search work.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := p.Plan(expired, plannerConfig(1, 100)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestHeuristicValidatesLikeAuto pins the bugfix: Heuristic used to skip the
// Nodes check that Plan performs.
func TestHeuristicValidatesLikeAuto(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	bad := plannerConfig(1, 100)
	bad.Nodes = 0
	_, planErr := p.Plan(context.Background(), bad)
	_, heurErr := p.Heuristic(bad)
	if planErr == nil || heurErr == nil {
		t.Fatalf("Nodes=0 must fail: plan=%v heuristic=%v", planErr, heurErr)
	}
	if planErr.Error() != heurErr.Error() {
		t.Errorf("Plan and Heuristic must return the same validation error: %q vs %q",
			planErr, heurErr)
	}
	bad.Nodes = -3
	if _, err := p.Heuristic(bad); err == nil {
		t.Error("negative Nodes must fail")
	}

	// Heuristic runs no search: the options it cannot honour are an error,
	// not a silent no-op; WithRunOptions still applies.
	good := plannerConfig(1, 100)
	for name, opt := range map[string]AutoOption{
		"WithProgress":           WithProgress(func(search.ProgressPoint) {}),
		"WithWarmStart":          WithWarmStart(nil),
		"WithCalibrationFactors": WithCalibrationFactors(map[string]float64{"actor/GENERATE": 1.5}),
	} {
		if _, err := p.Heuristic(good, opt); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Heuristic(%s) = %v, want wrapped ErrInvalidConfig", name, err)
		}
	}
	exp, err := p.Heuristic(good, WithRunOptions(RunOptions{UseCUDAGraph: true}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverlapComm {
		t.Error("Heuristic must honor WithRunOptions")
	}
}

// TestPlanRejectsNegativeFields pins the bugfix: validate checked only
// Nodes, so a negative size or search knob reached the planner. A negative
// GPUsPerNode panicked in the heuristic seed, a negative SearchSteps with no
// SearchTime searched until the context ended, and a negative BatchSize was
// planned. Each is now rejected before any work with a wrapped
// ErrInvalidConfig naming the field; the deadline bounds the test should a
// search run forever.
func TestPlanRejectsNegativeFields(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	for _, tc := range []struct {
		field string
		set   func(*ExperimentConfig)
	}{
		{"GPUsPerNode", func(c *ExperimentConfig) { c.GPUsPerNode = -8 }},
		{"BatchSize", func(c *ExperimentConfig) { c.BatchSize = -64 }},
		{"PromptLen", func(c *ExperimentConfig) { c.PromptLen = -1 }},
		{"GenLen", func(c *ExperimentConfig) { c.GenLen = -1 }},
		{"MiniBatches", func(c *ExperimentConfig) { c.MiniBatches = -1 }},
		{"Iterations", func(c *ExperimentConfig) { c.Iterations = -1 }},
		{"SearchSteps", func(c *ExperimentConfig) { c.SearchSteps = -5 }},
		{"SearchTime", func(c *ExperimentConfig) { c.SearchTime = -time.Second }},
		{"SearchParallelism", func(c *ExperimentConfig) { c.SearchParallelism = -2 }},
	} {
		cfg := plannerConfig(1, 100)
		tc.set(&cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := p.Plan(ctx, cfg)
		cancel()
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(fmt.Sprint(err), tc.field) {
			t.Errorf("negative %s: Plan = %v, want a wrapped ErrInvalidConfig naming the field", tc.field, err)
		}
		if _, err := p.Heuristic(cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("negative %s: Heuristic = %v, want wrapped ErrInvalidConfig", tc.field, err)
		}
	}
	if st := p.Stats(); st.PlanRequests != 0 || st.PlanCacheMisses != 0 {
		t.Errorf("rejected configs counted: %+v", st)
	}
}

// TestClusterCapRejectsHugeClusters pins the bugfix: validate set no upper
// bound on the cluster, so Nodes = 1<<40 or GPUsPerNode = 1<<40 made the
// planner size per-GPU slices of terabytes and die with a fatal out of
// memory (no recover catches it). Every entry point now rejects a cluster
// past 1,024 nodes or 8,192 GPUs with a wrapped ErrInvalidConfig naming the
// field, a product that would overflow included, and a session that was
// asked to grow past the cap keeps working.
func TestClusterCapRejectsHugeClusters(t *testing.T) {
	ctx := context.Background()
	p := NewPlanner(ClusterConfig{})
	tr, err := p.Train(ctx, trainerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(ctx); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := tr.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	state, err := checkpoint.Read(&ckpt)
	if err != nil {
		t.Fatal(err)
	}

	wantInvalid := func(what, field string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(fmt.Sprint(err), field) {
			t.Errorf("%s = %v, want a wrapped ErrInvalidConfig naming %s", what, err, field)
		}
	}
	for _, tc := range []struct {
		name, field        string
		nodes, gpusPerNode int
	}{
		{"nodes", "Nodes", 1 << 40, 0},
		{"nodes-over-cap", "Nodes", 1025, 8},
		{"gpus-per-node", "GPUsPerNode", 1, 1 << 40},
		{"gpus-over-cap", "GPUsPerNode", 1024, 9},
		{"product-overflows", "GPUsPerNode", 2, 1 << 62},
	} {
		cfg := plannerConfig(1, 100)
		cfg.Nodes, cfg.GPUsPerNode = tc.nodes, tc.gpusPerNode
		_, err := p.Plan(ctx, cfg)
		wantInvalid(tc.name+": Plan", tc.field, err)
		b, ok, err := p.PlanCachedAnswer(cfg, func(*Experiment) ([]byte, error) { return []byte("{}"), nil })
		if b != nil || ok {
			t.Errorf("%s: PlanCachedAnswer answered %q", tc.name, b)
		}
		wantInvalid(tc.name+": PlanCachedAnswer", tc.field, err)
		_, err = p.Heuristic(cfg)
		wantInvalid(tc.name+": Heuristic", tc.field, err)
		_, err = p.Train(ctx, cfg)
		wantInvalid(tc.name+": Train", tc.field, err)
	}

	state.Nodes = 1 << 40
	ckpt.Reset()
	if err := checkpoint.Write(&ckpt, state); err != nil {
		t.Fatal(err)
	}
	_, err = p.ResumeTrain(ctx, &ckpt, trainerConfig())
	wantInvalid("ResumeTrain of a 1<<40-node checkpoint", "Nodes", err)

	wantInvalid("Resize to 1<<40 nodes", "Nodes", tr.Resize(ctx, 1<<40))
	wantInvalid("Resize to 0 nodes", "Nodes", tr.Resize(ctx, 0))
	if st := tr.Stats(); st.Nodes != 1 {
		t.Errorf("a rejected Resize left the session on %d nodes", st.Nodes)
	}
	if _, err := tr.Step(ctx); err != nil {
		t.Fatalf("the session stopped stepping after a rejected Resize: %v", err)
	}
	if st := p.Stats(); st.PlanCacheMisses != 1 {
		t.Errorf("rejected configs reached the solver: %+v", st)
	}
}

// TestClusterCapValuesValidate: the caps themselves are legal clusters — a
// 1,024-node and an 8,192-GPU config validate, and the largest cluster a
// 3-node config may hold (3 × 2,730 GPUs) stops one GPU per node short of
// the cap — and a 1,024 × 8 config plans.
func TestClusterCapValuesValidate(t *testing.T) {
	for _, c := range []struct{ nodes, gpusPerNode int }{
		{1024, 8}, {1024, 0}, {1, 8192}, {8192 / 16, 16}, {3, 2730},
	} {
		cfg := plannerConfig(1, 100)
		cfg.Nodes, cfg.GPUsPerNode = c.nodes, c.gpusPerNode
		if err := cfg.validate(); err != nil {
			t.Errorf("%d nodes × %d GPUs: %v", c.nodes, c.gpusPerNode, err)
		}
	}
	cfg := plannerConfig(1, 20)
	cfg.Nodes = 3
	cfg.GPUsPerNode = 2731
	if err := cfg.validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("3 × 2,731 GPUs: %v, want ErrInvalidConfig", err)
	}
	cfg.Nodes, cfg.GPUsPerNode = 1024, 8
	exp, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
	if err != nil {
		t.Fatalf("a 1,024-node config must plan: %v", err)
	}
	if exp.Cluster.NumGPUs() != 8192 {
		t.Errorf("planned a cluster of %d GPUs, want 8,192", exp.Cluster.NumGPUs())
	}
}

func TestPlannerSessionDefaults(t *testing.T) {
	p := NewPlanner(ClusterConfig{Nodes: 1})
	cfg := plannerConfig(2, 100)
	cfg.Nodes = 0 // inherit the session cluster
	exp, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Config.Nodes != 1 || exp.Cluster.Nodes != 1 {
		t.Errorf("session default Nodes not applied: config=%d cluster=%d",
			exp.Config.Nodes, exp.Cluster.Nodes)
	}
}

func TestPlannerOptions(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(4, 150)

	// WithProgress streams a monotone best-cost curve.
	var pts []search.ProgressPoint
	exp, err := p.Plan(context.Background(), cfg, WithProgress(func(pt search.ProgressPoint) {
		pts = append(pts, pt)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("WithProgress saw no points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].BestCost > pts[i-1].BestCost+1e-12 {
			t.Errorf("best cost increased at point %d: %v -> %v", i, pts[i-1].BestCost, pts[i].BestCost)
		}
	}

	// Cache hits skip the search and emit no points.
	n := len(pts)
	cached, err := p.Plan(context.Background(), cfg, WithProgress(func(pt search.ProgressPoint) {
		pts = append(pts, pt)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || len(pts) != n {
		t.Errorf("cached request streamed %d new progress points", len(pts)-n)
	}

	// Solver selects the engine; greedy is deterministic and distinct from
	// the cached MCMC request.
	greedyCfg := cfg
	greedyCfg.Solver = "greedy"
	greedy, err := p.Plan(context.Background(), greedyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cached {
		t.Error("different solver must not alias the mcmc cache entry")
	}
	greedyCfg.Solver = "no-such-solver"
	if _, err := p.Plan(context.Background(), greedyCfg); err == nil {
		t.Error("unknown solver must fail")
	}

	// SearchParallelism sets the default solver's chain count.
	parCfg := cfg
	parCfg.SearchParallelism = 2
	par, err := p.Plan(context.Background(), parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Config.Solver != "mcmc" || len(par.SearchStats.Chains) != 2 {
		t.Errorf("SearchParallelism 2: solver=%q chains=%d",
			par.Config.Solver, len(par.SearchStats.Chains))
	}

	// WithWarmStart seeds the solve and keys the cache separately.
	warm, err := p.Plan(context.Background(), cfg, WithWarmStart(exp.Plan))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Error("warm-started request must not alias the plain cache entry")
	}
	if warm.Estimate.Cost > exp.Estimate.Cost+1e-12 {
		t.Errorf("warm start (%.4f) lost to its own seed (%.4f)", warm.Estimate.Cost, exp.Estimate.Cost)
	}

	// WithRunOptions binds execution options to Run().
	serial, err := p.Plan(context.Background(), cfg,
		WithRunOptions(RunOptions{UseCUDAGraph: true, OverlapComm: false}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverlapComm {
		t.Error("Run() ignored WithRunOptions (overlap should be off)")
	}
	// ... including on cache hits.
	cachedSerial, err := p.Plan(context.Background(), cfg,
		WithRunOptions(RunOptions{UseCUDAGraph: true, OverlapComm: false}))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cachedSerial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !cachedSerial.Cached || rep2.OverlapComm {
		t.Error("cached experiment must honor the request's run options")
	}
}

func TestSavePlanLoadExperimentRoundtrip(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(6, 150)
	exp, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := exp.SavePlan(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := p.LoadExperiment(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan.Fingerprint() != exp.Plan.Fingerprint() {
		t.Error("loaded plan differs from the saved one")
	}
	if loaded.Estimate.Cost != exp.Estimate.Cost {
		t.Errorf("loaded estimate %.6f != original %.6f", loaded.Estimate.Cost, exp.Estimate.Cost)
	}
	rep, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM || rep.IterationTime <= 0 {
		t.Errorf("loaded experiment failed to run: %+v", rep)
	}

	// Cluster-shape mismatches are rejected.
	wrong := cfg
	wrong.Nodes = 2
	if _, err := p.LoadExperiment(path, wrong); err == nil {
		t.Error("node-count mismatch must fail")
	}
	// Model-cast mismatches are rejected.
	wrongModels := cfg
	wrongModels.RPCs = PPORPCs("llama13b", "llama7b-critic")
	if _, err := p.LoadExperiment(path, wrongModels); err == nil {
		t.Error("model mismatch must fail")
	}
}

func TestAlgoPresets(t *testing.T) {
	base := ExperimentConfig{Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256}

	cases := []struct {
		algo  string
		calls int
	}{{"ppo", 6}, {"dpo", 2}, {"grpo", 4}, {"remax", 5}}
	for _, tc := range cases {
		rpcs, err := AlgoRPCs(tc.algo, "llama7b", "llama7b-critic")
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.RPCs = rpcs
		g, models, err := buildGraph(cfg.withDefaults())
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if len(g.Nodes) != tc.calls {
			t.Errorf("%s graph has %d calls, want %d", tc.algo, len(g.Nodes), tc.calls)
		}
		if !models["actor"].Trainable {
			t.Errorf("%s: actor must be trainable", tc.algo)
		}
		cfg.Iterations = 3
		if g3, _, err := buildGraph(cfg.withDefaults()); err != nil || len(g3.Nodes) != 3*tc.calls {
			t.Errorf("%s over 3 iterations: err %v, want %d calls", tc.algo, err, 3*tc.calls)
		}
	}
	if _, err := AlgoRPCs("rlaif", "llama7b", "llama7b-critic"); err == nil {
		t.Error("unknown algorithm must fail")
	}

	graphOf := func(algo string) *dfg.Graph {
		t.Helper()
		rpcs, err := AlgoRPCs(algo, "llama7b", "llama7b-critic")
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.RPCs = rpcs
		g, _, err := buildGraph(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Workload shaping: GRPO's calls see the grouped batch, DPO's the
	// doubled pair batch, and DPO/ReMax train full-batch.
	check := func(algo string, wantBatch, wantTrainMB int) {
		t.Helper()
		for _, n := range graphOf(algo).Nodes {
			if n.Work.Batch != wantBatch {
				t.Errorf("%s call %s batch=%d, want %d", algo, n.Name, n.Work.Batch, wantBatch)
			}
			if n.Name == "ActorTrain" && n.Work.MiniBatches != wantTrainMB {
				t.Errorf("%s train MiniBatches=%d, want %d", algo, n.Work.MiniBatches, wantTrainMB)
			}
		}
	}
	check("grpo", 64*GRPOGroupSize, 8)
	check("dpo", 64*2, 1)
	check("remax", 64, 1)

	// Presets must plan and run end to end through the session API.
	p := NewPlanner(ClusterConfig{Nodes: 1})
	for _, algo := range []string{"dpo", "remax"} {
		rpcs, err := AlgoRPCs(algo, "llama7b", "llama7b-critic")
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.RPCs = rpcs
		cfg.SearchSteps = 120
		exp, err := p.Plan(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		rep, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.OOM {
			t.Errorf("%s plan OOMed: %v", algo, rep.Errors)
		}
	}
}

// TestConfigFingerprintCanonical guards the cache key: search knobs are in
// the fingerprint but not the problem key, and names cannot alias.
func TestConfigFingerprintCanonical(t *testing.T) {
	a := plannerConfig(1, 100).withDefaults()
	b := a
	b.Seed = 2
	if a.problemKey() != b.problemKey() {
		t.Error("seed must not change the problem key")
	}
	if a.fingerprint() == b.fingerprint() {
		t.Error("seed must change the request fingerprint")
	}
	c := a
	c.BatchSize *= 2
	if a.problemKey() == c.problemKey() {
		t.Error("batch size must change the problem key")
	}
	// Length-prefixed tokens: ("ab","c") must not alias ("a","bc").
	d := a
	d.RPCs = append([]ModelFunctionCallDef{}, a.RPCs...)
	d.RPCs[0].InputData = []string{"ab", "c"}
	e := a
	e.RPCs = append([]ModelFunctionCallDef{}, a.RPCs...)
	e.RPCs[0].InputData = []string{"a", "bc"}
	if d.problemKey() == e.problemKey() {
		t.Error("token lists alias under concatenation")
	}
}

// TestPlannerLRUEviction exercises the bounded plan cache.
func TestPlannerLRUEviction(t *testing.T) {
	p := NewPlanner(ClusterConfig{PlanCacheEntries: 2, ProblemCacheEntries: 1})
	mk := func(seed int64) ExperimentConfig { return plannerConfig(seed, 80) }
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := p.Plan(context.Background(), mk(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Seed 1 was evicted by seeds 2 and 3; re-planning it is a miss.
	again, err := p.Plan(context.Background(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("evicted entry served from cache")
	}
	// Seed 3 is still resident.
	hit, err := p.Plan(context.Background(), mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("resident entry missed the cache")
	}
}

// TestCachedPlanIsolation: mutating a returned plan must not corrupt the
// cache or other callers.
func TestCachedPlanIsolation(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(8, 120)
	first, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := first.Plan.Fingerprint()
	for name := range first.Plan.Assign {
		delete(first.Plan.Assign, name) // vandalize the caller's copy
		break
	}
	second, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Plan.Fingerprint() != fp {
		t.Error("cache entry was corrupted by a caller's mutation")
	}
	for name := range second.Plan.Assign {
		delete(second.Plan.Assign, name)
		break
	}
	third, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.Plan.Fingerprint() != fp {
		t.Error("cache entry was corrupted by a cached caller's mutation")
	}
}

// TestPlanCachedAnswer: PlanCachedAnswer misses exactly when PlanCached
// does, counts a hit as PlanCached does, hands encode the cached experiment
// with Cached set, stores nothing for a failed encode, and after the first
// successful encode returns the stored bytes without calling encode again.
func TestPlanCachedAnswer(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(8, 120)
	calls := 0
	encode := func(exp *Experiment) ([]byte, error) {
		calls++
		if !exp.Cached {
			t.Error("encode got an experiment without Cached set")
		}
		return []byte(exp.Plan.Fingerprint()), nil
	}
	if b, ok, err := p.PlanCachedAnswer(cfg, encode); ok || b != nil || err != nil || calls != 0 {
		t.Fatalf("before any solve: (%q, %v, %v) after %d encodes, want a miss", b, ok, err, calls)
	}
	if st := p.Stats(); st.PlanRequests != 0 || st.PlanCacheHits != 0 {
		t.Fatalf("a miss counted: %+v", st)
	}
	exp, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Plan.Fingerprint()

	failure := errors.New("encode failed")
	if _, ok, err := p.PlanCachedAnswer(cfg, func(*Experiment) ([]byte, error) { return nil, failure }); !ok || !errors.Is(err, failure) {
		t.Fatalf("failed encode: ok=%v err=%v, want a hit carrying encode's error", ok, err)
	}
	for i := 0; i < 3; i++ {
		b, ok, err := p.PlanCachedAnswer(cfg, encode)
		if !ok || err != nil || string(b) != want {
			t.Fatalf("hit %d: (%q, %v, %v), want (%q, true, nil)", i, b, ok, err, want)
		}
	}
	if calls != 1 {
		t.Errorf("encode ran %d times, want once: the failure stores nothing, later hits reuse the answer", calls)
	}
	if st := p.Stats(); st.PlanRequests != 5 || st.PlanCacheHits != 4 {
		t.Errorf("stats = %+v, want 5 requests (1 solve + 4 hits) and 4 cache hits", st)
	}

	// A config that fails validation returns the error Plan returns for it,
	// so a frontend can answer it before admitting a solve, and counts as
	// nothing. An error only the dataflow graph reveals stays a plain miss.
	bad := cfg
	bad.BatchSize = -64
	_, planErr := p.Plan(context.Background(), bad)
	b, ok, err := p.PlanCachedAnswer(bad, encode)
	if ok || b != nil || !errors.Is(err, ErrInvalidConfig) || planErr == nil || err.Error() != planErr.Error() {
		t.Errorf("invalid config: (%q, %v, %v), want (nil, false, Plan's error %v)", b, ok, err, planErr)
	}
	unknown := cfg
	unknown.RPCs = PPORPCs("llama9b", "llama7b-critic")
	if b, ok, err := p.PlanCachedAnswer(unknown, encode); ok || b != nil || err != nil {
		t.Errorf("unknown model type: (%q, %v, %v), want a plain miss", b, ok, err)
	}
	if st := p.Stats(); st.PlanRequests != 5 || st.PlanCacheHits != 4 || calls != 1 {
		t.Errorf("after invalid configs: stats = %+v and %d encodes, want them unchanged", st, calls)
	}
}

func TestPlannerTimeBoundedBypassesCache(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(11, 0)
	cfg.SearchTime = 50 * time.Millisecond
	a, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cached || b.Cached {
		t.Error("time-bounded searches must not be replayed from the plan cache")
	}
	// The bypass also covers multi-chain solves: every time-bounded
	// multi-chain request runs a fresh solve (its exchange barriers terminate
	// on the clock, so results are nondeterministic and must not be
	// replayed).
	cfg.SearchParallelism = 3
	for i := 0; i < 2; i++ {
		exp, err := p.Plan(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if exp.Cached {
			t.Error("time-bounded multi-chain request hit the plan cache")
		}
		if got := len(exp.SearchStats.Chains); got != 3 {
			t.Errorf("want 3 chains of stats, got %d", got)
		}
	}
	st := p.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheMisses != 4 {
		t.Errorf("time-bounded requests must all count as misses: hits %d misses %d",
			st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestPlanForOverlapIsolatesCaches: a serialized and an overlap-aware
// request for the same workload must not share the per-problem cost cache
// (their estimators disagree about every makespan) nor the plan cache.
func TestPlanForOverlapIsolatesCaches(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(3, 200)
	serial, err := p.Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ovCfg := cfg
	ovCfg.PlanForOverlap = true
	over, err := p.Plan(context.Background(), ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	if over.Cached {
		t.Error("overlap-aware request must not be answered from the serialized plan cache")
	}
	if st := p.Stats(); st.Problems != 2 {
		t.Errorf("serialized and overlap-aware solves must own separate cost caches, got %d problems", st.Problems)
	}
	if serial.Config.PlanForOverlap || !over.Config.PlanForOverlap {
		t.Error("returned Experiment.Config must echo the cost semantics used")
	}
	// Heuristic honors the config knob: same symmetric plan, estimated
	// under the overlapped schedule — never above its serialized estimate.
	heurSerial, err := p.Heuristic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heurOver, err := p.Heuristic(ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	if heurOver.Plan.Fingerprint() != heurSerial.Plan.Fingerprint() {
		t.Error("PlanForOverlap must not change the heuristic plan, only its estimate")
	}
	if heurOver.Estimate.TimeCost > heurSerial.Estimate.TimeCost {
		t.Errorf("overlapped heuristic estimate %.4f exceeds serialized %.4f of the same plan",
			heurOver.Estimate.TimeCost, heurSerial.Estimate.TimeCost)
	}
	// The overlap-aware solve is warm-started with the heuristic seed, so
	// its cost can never exceed the heuristic's under the same semantics.
	if over.Estimate.Cost > heurOver.Estimate.Cost {
		t.Errorf("overlap-aware solve (%.4f) worse than its heuristic seed under overlapped costs (%.4f)",
			over.Estimate.Cost, heurOver.Estimate.Cost)
	}
}

// TestPlannerStatsCostCacheReuse: the per-problem cost cache answers the
// re-estimates the problem pool is kept for. A solve stores its winner's
// estimate, so loading the solved plan back hits, and a repeated Heuristic
// hits the entry the first one stored.
func TestPlannerStatsCostCacheReuse(t *testing.T) {
	ctx := context.Background()
	p := NewPlanner(ClusterConfig{})
	cfg := plannerConfig(1, 150)
	exp, err := p.Plan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := exp.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	hits := p.Stats().CostCacheHits
	loaded, err := p.LoadExperimentBytes(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().CostCacheHits; got != hits+1 {
		t.Errorf("loading the solved plan: %d cost-cache hits, want %d", got-hits, 1)
	}
	if loaded.Estimate != exp.Estimate {
		t.Error("loading the solved plan re-estimated it instead of reading the stored estimate")
	}
	if _, err := p.Heuristic(cfg); err != nil {
		t.Fatal(err)
	}
	hits = p.Stats().CostCacheHits
	if _, err := p.Heuristic(cfg); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CostCacheHits != hits+1 {
		t.Errorf("repeated Heuristic: %d cost-cache hits, want 1", st.CostCacheHits-hits)
	}
	if st.Problems != 1 {
		t.Errorf("one problem, %d cost caches", st.Problems)
	}
}

// TestProblemLoweredOnce: a problem's pool entry keeps the graph its key
// fixes, so solves at two seeds, a Heuristic and a stored plan of that
// problem all share one lowered graph, while a calibrated request, a
// problem of its own, gets its own graph.
func TestProblemLoweredOnce(t *testing.T) {
	ctx := context.Background()
	p := NewPlanner(ClusterConfig{})
	first, err := p.Plan(ctx, plannerConfig(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	g := first.Plan.Graph
	second, err := p.Plan(ctx, plannerConfig(2, 200))
	if err != nil {
		t.Fatal(err)
	}
	heur, err := p.Heuristic(plannerConfig(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	data, err := first.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := p.LoadExperimentBytes(data, plannerConfig(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	for name, exp := range map[string]*Experiment{"second seed": second, "Heuristic": heur, "LoadExperimentBytes": loaded} {
		if exp.Plan.Graph != g {
			t.Errorf("%s lowered the problem's graph again", name)
		}
	}
	calibrated, err := p.Plan(ctx, plannerConfig(1, 200), WithCalibrationFactors(map[string]float64{"actor/GENERATE": 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.Plan.Graph == g {
		t.Error("a calibrated request shares the uncalibrated problem's graph")
	}
	if st := p.Stats(); st.Problems != 2 {
		t.Errorf("%d problems, want the base and its calibrated twin", st.Problems)
	}
}

// TestPlannerCostCacheBounded: a problem that stays in the pool across many
// solves keeps a bounded plan-level memo, and the latest entries still
// answer what the memo is kept for: a Trainer's replan re-attaches its
// incumbent twice.
func TestPlannerCostCacheBounded(t *testing.T) {
	ctx := context.Background()
	p := NewPlanner(ClusterConfig{})
	cfg, err := PaperExperiment("ppo", "llama13b", "llama7b-critic", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchSteps = 1000
	var last *Experiment
	for seed := int64(1); seed <= 80; seed++ {
		cfg.Seed = seed
		exp, err := p.Plan(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := p.problemFor(exp.Config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := ps.cache.Len(); n > 64 {
			t.Fatalf("after %d solves the problem's cost cache holds %d estimates, want at most 64", seed, n)
		}
		last = exp
	}
	st := p.Stats()
	if st.Problems != 1 || st.CostCacheMisses <= 64 {
		t.Fatalf("%d problems, %d cost-cache misses: the 80 solves must store more than 64 winners in one problem's cache",
			st.Problems, st.CostCacheMisses)
	}
	for i := 0; i < 2; i++ {
		hits := p.Stats().CostCacheHits
		_, res, err := p.attach(last.Config, nil, last.Plan.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats().CostCacheHits != hits+1 || res != last.Estimate {
			t.Errorf("re-attach %d of the latest winner missed the cost cache", i+1)
		}
	}
}

// TestSearchBoundDecidesColdSolve: on the paper's 4-node 13B PPO problem a
// 4,000-step walk rejects at least 40% of its proposals on the call-only
// bound, without a full estimate.
func TestSearchBoundDecidesColdSolve(t *testing.T) {
	cfg, err := PaperExperiment("ppo", "llama13b", "llama7b-critic", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchSteps, cfg.Seed = 4000, 1
	exp, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := exp.SearchStats
	if st.Steps != 4000 || st.BoundRejected*10 < st.Steps*4 {
		t.Errorf("the bound decided %d of %d proposals, want at least 40%%", st.BoundRejected, st.Steps)
	}
	if len(st.Chains) != 1 || st.Chains[0].BoundRejected != st.BoundRejected {
		t.Errorf("per-chain bound rejections %+v do not sum to %d", st.Chains, st.BoundRejected)
	}
}

func ExamplePlanner() {
	planner := NewPlanner(ClusterConfig{Nodes: 1})
	cfg := ExperimentConfig{
		BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs: PPORPCs("llama7b", "llama7b-critic"), SearchSteps: 150, Seed: 1,
	}
	first, _ := planner.Plan(context.Background(), cfg)
	second, _ := planner.Plan(context.Background(), cfg)
	fmt.Println("second request cached:", second.Cached,
		"identical:", first.Plan.Fingerprint() == second.Plan.Fingerprint())
	// Output: second request cached: true identical: true
}

// TestPlanIndependentOfGOMAXPROCS: the config fingerprint is the plan-cache
// and coalescing key, so it must fix the plan on every host. With
// SearchParallelism 0 every registered solver plans the 2-node 7B PPO
// preset with at most one chain, to the same plan under GOMAXPROCS 1 and 4.
func TestPlanIndependentOfGOMAXPROCS(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	cfg, err := PaperExperiment("ppo", "llama7b", "llama7b-critic", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchSteps, cfg.Seed = 600, 1
	for _, solver := range search.Names() {
		cfg.Solver = solver
		var fps []string
		for _, procs := range []int{1, 4} {
			goruntime.GOMAXPROCS(procs)
			exp, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s under GOMAXPROCS %d: %v", solver, procs, err)
			}
			if n := len(exp.SearchStats.Chains); n > 1 {
				t.Errorf("%s under GOMAXPROCS %d ran %d chains, want at most 1", solver, procs, n)
			}
			fps = append(fps, exp.Plan.Fingerprint())
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: one config fingerprint, two plans under GOMAXPROCS 1 and 4:\n  %s\n  %s", solver, fps[0], fps[1])
		}
	}
}

// TestCalibrationFactorCheck: every entry point that takes calibration
// factors rejects the same values with ErrInvalidConfig — a request's
// WithCalibrationFactors and a resumed checkpoint's calibration alike.
func TestCalibrationFactorCheck(t *testing.T) {
	ctx := context.Background()
	p := NewPlanner(ClusterConfig{})
	cfg := trainerConfig()
	tr, err := p.Train(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.mu.Lock()
	state, err := tr.checkpointLocked()
	tr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := p.Plan(ctx, cfg, WithCalibrationFactors(map[string]float64{"ActorGen": f})); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("factor %v: Plan returned %v, want ErrInvalidConfig", f, err)
		}
		bad := *state
		bad.Calibration = map[string]float64{"ActorGen": f}
		if rt, err := p.resumeTrain(ctx, &bad, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("factor %v: resume returned %v, want ErrInvalidConfig", f, err)
			if rt != nil {
				rt.Close()
			}
		}
	}
	rt, err := p.resumeTrain(ctx, state, cfg)
	if err != nil {
		t.Fatalf("resuming the untouched checkpoint: %v", err)
	}
	rt.Close()
}
