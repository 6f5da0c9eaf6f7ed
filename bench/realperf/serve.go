package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"realhf"
	"realhf/internal/serve"
)

// Plan-service tenants wait for each reply, so both serve workloads are
// closed loops: two serve.Clients (nproc on the reference machine) over
// keep-alive loopback HTTP, capped at two connections, to an in-process
// serve.Server sharing the same cores.
const serveClients = 2

var (
	serveAlgos  = []string{"ppo", "grpo", "dpo", "remax"}
	serveActors = []string{"llama7b", "llama13b"}
)

// serveConfig is one plan-service request: a small workload (64 prompts per
// node, 256-token prompts) so a miss costs milliseconds, searched with a
// step-bounded (hence cacheable) MCMC.
func serveConfig(algo, actor string, nodes, genLen int, seed int64) realhf.ExperimentConfig {
	rpcs, err := realhf.AlgoRPCs(algo, actor, "llama7b-critic")
	if err != nil {
		panic(err) // the algorithm names above are the presets'
	}
	return realhf.ExperimentConfig{
		Nodes: nodes, BatchSize: 64 * nodes, PromptLen: 256, GenLen: genLen,
		RPCs: rpcs, SearchSteps: 1000, Seed: seed,
	}
}

// serveEnv is one plan-service deployment plus its two clients.
type serveEnv struct {
	planner *realhf.Planner
	server  *serve.Server
	http    *httptest.Server
	tr      *http.Transport
	clients [serveClients]*serve.Client
}

func newServeEnv(t *tracer) (*serveEnv, error) {
	p := realhf.NewPlanner(realhf.ClusterConfig{})
	srv, err := serve.New(serve.Config{Planner: p})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if t != nil {
		h = t.handler(h)
	}
	env := &serveEnv{planner: p, server: srv, http: httptest.NewServer(h),
		tr: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	var rt http.RoundTripper = env.tr
	if t != nil {
		rt = headerTransport{base: env.tr}
	}
	for i := range env.clients {
		env.clients[i] = serve.NewClient(env.http.URL, serve.WithHTTPClient(&http.Client{Transport: rt}))
	}
	return env, nil
}

func (e *serveEnv) close() {
	e.tr.CloseIdleConnections()
	e.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.server.Shutdown(ctx) // in-flight solves have all returned by now
}

// keyRecord is the first answer seen for one request key; every later
// answer for the key must agree with it.
type keyRecord struct {
	cfg         realhf.ExperimentConfig
	calibrated  bool
	fingerprint string
	cost        float64
	plan        []byte
}

// answers checks served responses for consistency per key.
type answers struct {
	mu   sync.Mutex
	keys map[int]*keyRecord
}

func newAnswers() *answers { return &answers{keys: map[int]*keyRecord{}} }

// check records or compares one answer; it returns a failure message or "".
func (a *answers) check(key int, r keyRecord) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.keys[key]
	if !ok {
		a.keys[key] = &r
		return ""
	}
	if rec.fingerprint != r.fingerprint || rec.cost != r.cost {
		return fmt.Sprintf("key %d answered %s/%v, earlier %s/%v", key, r.fingerprint, r.cost, rec.fingerprint, rec.cost)
	}
	return ""
}

// servedRecord is a plan-service answer as a keyRecord.
func servedRecord(resp *serve.PlanResponse, calibrated bool) keyRecord {
	return keyRecord{cfg: resp.Config, calibrated: calibrated, fingerprint: resp.Fingerprint,
		cost: resp.Estimate.Cost, plan: resp.Plan}
}

// reload re-loads the plan of every key that kept one through
// Planner.LoadExperimentBytes and reports the keys whose fingerprint or cost
// differ. A calibrated answer's cost comes from the tenant's calibrated
// model, which LoadExperimentBytes does not apply, so only its fingerprint
// is compared.
func (a *answers) reload(p *realhf.Planner, rec *recorder) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(a.keys)) {
		k := a.keys[key]
		if k.plan == nil {
			continue
		}
		rec.attempt()
		exp, err := p.LoadExperimentBytes(k.plan, k.cfg)
		switch {
		case err != nil:
			rec.fail("reload key %d: %v", key, err)
		case exp.Plan.Fingerprint() != k.fingerprint:
			rec.fail("reload key %d: fingerprint %s, served %s", key, exp.Plan.Fingerprint(), k.fingerprint)
		case !k.calibrated && exp.Estimate.Cost != k.cost:
			rec.fail("reload key %d: cost %v, served %v", key, exp.Estimate.Cost, k.cost)
		}
	}
}

// servedOp sends one request, inside a round-trip span when traced, and
// returns the response (nil on failure) and its latency.
func servedOp(ctx context.Context, o *op, c *serve.Client, cfg realhf.ExperimentConfig, calib map[string]float64) (*serve.PlanResponse, time.Duration, error) {
	id, ctx := o.startRoundTrip(ctx)
	start := time.Now()
	resp, err := c.Plan(ctx, cfg, calib)
	lat := time.Since(start)
	o.endRoundTrip(id, err == nil)
	return resp, lat, err
}

// serveStats fills the serve- and planner-layer counter metrics. probeHits
// are the traced run's replayed plan-cache lookups, which the planner
// counts as requests and hits.
func serveStats(env *serveEnv, probeHits int64, out map[string]value) {
	st := env.server.Stats()
	out["serve.fastpath_ratio"] = value(ratio(float64(st.CacheHits), float64(st.Requests)))
	out["serve.coalesced_per_solve"] = value(ratio(float64(st.Coalesced), float64(st.Solves)))
	out["serve.rejected"] = value(st.Rejected)
	out["serve.queue_high_water"] = value(st.QueueHighWater)
	ps := env.planner.Stats()
	out["planner.plan_hit_ratio"] = value(ratio(float64(ps.PlanCacheHits-probeHits), float64(ps.PlanRequests-probeHits)))
	out["planner.cost_cache_hit_ratio"] = value(ratio(float64(ps.CostCacheHits), float64(ps.CostCacheHits+ps.CostCacheMisses)))
}

// heuristicRatio is the geometric mean of cost[i] / the REAL-Heuristic
// plan's cost for cfgs[i], each estimated by a fresh reference Planner.
func heuristicRatio(cfgs []realhf.ExperimentConfig, costs []float64) (float64, error) {
	ref := realhf.NewPlanner(realhf.ClusterConfig{ProblemCacheEntries: 64})
	heur := map[string]float64{}
	var logSum float64
	for i, cfg := range cfgs {
		cfg.Seed = 0 // the heuristic plan does not depend on the search seed
		key := ref.Canonicalize(cfg).Fingerprint()
		h, ok := heur[key]
		if !ok {
			exp, err := ref.Heuristic(cfg)
			if err != nil {
				return 0, fmt.Errorf("heuristic reference: %w", err)
			}
			h = exp.Estimate.Cost
			heur[key] = h
		}
		logSum += math.Log(costs[i] / h)
	}
	return math.Exp(logSum / float64(len(cfgs))), nil
}

// --- serve-hot ---

// runServeHot: 32 configs (four algorithms × 7B/13B actors × 1–2 nodes ×
// two generation lengths) are planned during set-up, then two clients
// request them uniformly at random. 32 keys fit the 64-entry plan cache, so
// the timed phase exercises only the cache-hit path: wire codec,
// canonicalization and fingerprinting, plan-cache lookup and clone, plan
// marshaling.
func runServeHot(rc *runConfig) (*runResult, error) {
	var cfgs []realhf.ExperimentConfig
	for _, algo := range serveAlgos {
		for _, actor := range serveActors {
			for _, nodes := range []int{1, 2} {
				for _, gen := range []int{256, 512} {
					cfgs = append(cfgs, serveConfig(algo, actor, nodes, gen, rc.seed*1000+int64(len(cfgs))+1))
				}
			}
		}
	}
	ctx := context.Background()
	rec := newRecorder()
	ans := newAnswers()
	var env *serveEnv
	setup, err := repeatSetup(rc.setups(), func(last bool) error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = newServeEnv(rc.tr); err != nil {
			return err
		}
		for i, cfg := range cfgs {
			resp, err := env.clients[0].Plan(ctx, cfg, nil)
			if err != nil {
				return fmt.Errorf("prewarm %d: %w", i, err)
			}
			if last {
				ans.check(i, servedRecord(resp, false))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	rng := rand.New(rand.NewSource(rc.seed))
	stream := make([]uint8, 1<<20)
	for i := range stream {
		stream[i] = uint8(rng.Intn(len(cfgs)))
	}
	var probeHits, respBytes, replays int64
	var mu sync.Mutex
	elapsed := closedLoop(rc, serveClients, 0, rec, func(c, i int) {
		key := int(stream[i%len(stream)])
		o := rc.tr.begin(c)
		defer o.finish()
		resp, lat, err := servedOp(ctx, o, env.clients[c], cfgs[key], nil)
		rec.attempt()
		if err != nil {
			rec.fail("request %d: %v", i, err)
			return
		}
		rec.observe(lat, resp.Cached, false)
		if msg := ans.check(key, servedRecord(resp, false)); msg != "" {
			rec.fail("%s", msg)
		}
		if o != nil {
			n, hit := replayServedHit(o, env.planner, &serve.PlanRequest{Config: cfgs[key]})
			mu.Lock()
			if hit {
				probeHits++
				respBytes += int64(n)
				replays++
			}
			mu.Unlock()
		}
	})
	res := rec.result(rc, "serve-hot", setup, elapsed)
	ans.reload(env.planner, rec)

	costs := make([]float64, len(cfgs))
	for i := range cfgs {
		costs[i] = ans.keys[i].cost
	}
	q, err := heuristicRatio(cfgs, costs)
	if err != nil {
		return nil, err
	}
	res.Metrics["plan_cost_ratio"] = value(q)
	if rc.tr != nil {
		serveStats(env, probeHits, res.Metrics)
		res.Metrics["wire.response_bytes"] = value(ratio(float64(respBytes), float64(replays)))
		rc.tr.layerMetrics(res.Metrics)
		res.Metrics["serve.transport_us"] = res.Metrics["serve.rtt_us"] - res.Metrics["serve.handler_us"]
	}
	rec.finish(res)
	return res, nil
}

// --- serve-churn ---

// The churn universe: 24 problems (four algorithms × 7B/13B actors × 1, 2
// and 4 nodes) × 40 search seeds = 960 keys, far more than the planner's 64
// plan-cache and 8 problem-cache entries.
const (
	churnSeeds = 40
	churnZipfS = 1.1
	// churnCalibShare of requests carry one of the tenants' calibrations;
	// churnCoalesceShare of stream entries are coalesce rounds, in which both
	// clients send the same fresh config at once.
	churnCalibShare    = 0.2
	churnCoalesceShare = 0.05
	// churnReplays bounds the traced run's replayed miss solves.
	churnReplays = 48
)

// churnTenants are three tenants' calibration factors (observed/predicted
// per call), keyed by the call names of all four presets.
var churnTenants = []map[string]float64{
	{"actor/GENERATE": 1.2, "ActorGen": 1.2, "SampleGen": 1.2, "GreedyGen": 1.2},
	{"actor/TRAIN_STEP": 0.9, "ActorTrain": 0.9},
	{"ref/INFERENCE": 1.1, "reward/INFERENCE": 1.1, "RefInf": 1.1, "RewInf": 1.1, "SampleRew": 1.1},
}

// churnEntry is one stream entry.
type churnEntry struct {
	cfg      int32 // universe index
	tenant   int8  // -1: uncalibrated
	coalesce bool
}

func churnUniverse() []realhf.ExperimentConfig {
	var problems []realhf.ExperimentConfig
	for _, algo := range serveAlgos {
		for _, actor := range serveActors {
			for _, nodes := range []int{1, 2, 4} {
				problems = append(problems, serveConfig(algo, actor, nodes, 512, 0))
			}
		}
	}
	// Key k is problem k mod 24 with search seed k/24+1, so the most popular
	// ranks spread over every problem.
	out := make([]realhf.ExperimentConfig, 0, len(problems)*churnSeeds)
	for s := 0; s < churnSeeds; s++ {
		for _, p := range problems {
			p.Seed = int64(s + 1)
			out = append(out, p)
		}
	}
	return out
}

// request materializes entry i of the stream.
func (e churnEntry) request(universe []realhf.ExperimentConfig, i int) (cfg realhf.ExperimentConfig, calib map[string]float64, key int) {
	cfg = universe[e.cfg]
	if e.coalesce {
		cfg.Seed = 1_000_000 + int64(i)
		return cfg, nil, len(universe)*(len(churnTenants)+1) + i
	}
	key = int(e.cfg) * (len(churnTenants) + 1)
	if e.tenant >= 0 {
		calib = churnTenants[e.tenant]
		key += int(e.tenant) + 1
	}
	return cfg, calib, key
}

// runServeChurn: Zipf(1.1)-popular keys over the 960-key universe, a fifth
// of them calibrated per tenant, and coalesce rounds. The same cache layers
// as serve-hot now do write-heavy work: inserts and evictions, cold
// problems, solves and singleflight joins. Search seeds are fixed per key;
// the seed drives the request stream.
func runServeChurn(rc *runConfig) (*runResult, error) {
	universe := churnUniverse()
	rng := rand.New(rand.NewSource(rc.seed))
	zipf := rand.NewZipf(rng, churnZipfS, 1, uint64(len(universe)-1))
	stream := make([]churnEntry, 1<<16)
	for i := range stream {
		e := churnEntry{cfg: int32(zipf.Uint64()), tenant: -1}
		switch r := rng.Float64(); {
		case r < churnCoalesceShare:
			e.coalesce = true
		case r < churnCoalesceShare+churnCalibShare:
			e.tenant = int8(rng.Intn(len(churnTenants)))
		}
		stream[i] = e
	}
	quality := rc.scaled(1000)

	ctx := context.Background()
	rec := newRecorder()
	ans := newAnswers()
	var env *serveEnv
	// A fixed config outside the universe warms the solve path once per
	// deployment, so the timed phase starts from a served miss's steady
	// state, not from the process's first solve.
	warm := serveConfig("ppo", "llama7b", 1, 256, 999_999)
	setup, err := repeatSetup(rc.setups(), func(bool) error {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = newServeEnv(rc.tr); err != nil {
			return err
		}
		_, err = env.clients[0].Plan(ctx, warm, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	costs := make([]float64, quality)
	var mu sync.Mutex // guards costs and the traced run's tallies below
	var probeHits, respBytes, replays int64
	replaysLeft := churnReplays
	var solves searchAcc
	var estimates estimateStats
	served := func(i int, o *op, cfg realhf.ExperimentConfig, calib map[string]float64, key int, client *serve.Client) {
		resp, lat, err := servedOp(ctx, o, client, cfg, calib)
		rec.attempt()
		if err != nil {
			rec.fail("request %d: %v", i, err)
			return
		}
		miss := !resp.Cached && !resp.Coalesced
		rec.observe(lat, resp.Cached, miss)
		r := servedRecord(resp, calib != nil)
		if i >= quality {
			// Only the fixed prefix's keys keep their plans for the reload
			// check, so the benchmark's memory does not grow with the number
			// of requests served.
			r.plan = nil
		}
		if msg := ans.check(key, r); msg != "" {
			rec.fail("%s", msg)
		}
		mu.Lock()
		if i < quality {
			costs[i] = resp.Estimate.Cost // both halves of a coalesce round carry the same answer
		}
		mu.Unlock()
		if o == nil {
			return
		}
		n, hit := replayServedHit(o, env.planner, &serve.PlanRequest{Config: cfg, Calibration: calib})
		mu.Lock()
		if hit {
			probeHits++
			respBytes += int64(n)
			replays++
		}
		// Replaying a solve costs as much as the miss itself, so only the
		// first few uncalibrated misses are replayed.
		replay := miss && calib == nil && replaysLeft > 0
		if replay {
			replaysLeft--
		}
		mu.Unlock()
		if !replay {
			return
		}
		exp, err := env.planner.LoadExperimentBytes(resp.Plan, resp.Config)
		if err != nil {
			rec.fail("request %d: reload for replay: %v", i, err)
			return
		}
		cost, st, wall, err := replaySolve(o, exp.Plan, resp.Config)
		if err != nil || cost != resp.Estimate.Cost {
			rec.fail("request %d: replayed solve cost %v (err %v), served %v", i, cost, err, resp.Estimate.Cost)
		}
		var es estimateStats
		replayEstimate(o, estimatorFor(o, exp.Plan, resp.Config.PlanForOverlap), exp.Plan, &es)
		mu.Lock()
		solves.add(st, wall)
		estimates.add(es)
		mu.Unlock()
	}
	elapsed := closedLoop(rc, serveClients, quality, rec, func(c, i int) {
		e := stream[i%len(stream)]
		cfg, calib, key := e.request(universe, i)
		o := rc.tr.begin(c)
		defer o.finish()
		if !e.coalesce {
			served(i, o, cfg, calib, key, env.clients[c])
			return
		}
		var wg sync.WaitGroup
		for k := range env.clients {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				served(i, o, cfg, calib, key, env.clients[k])
			}(k)
		}
		wg.Wait()
	})
	res := rec.result(rc, "serve-churn", setup, elapsed)
	ans.reload(env.planner, rec)

	cfgs := make([]realhf.ExperimentConfig, quality)
	for i := range cfgs {
		cfgs[i], _, _ = stream[i].request(universe, i)
	}
	q, err := heuristicRatio(cfgs, costs)
	if err != nil {
		return nil, err
	}
	res.Metrics["plan_cost_ratio"] = value(q)
	res.Metrics["hit_p50_ms"] = value(rec.hits.percentile(0.5))
	res.Metrics["miss_p50_ms"] = value(rec.misses.percentile(0.5))
	if rc.tr != nil {
		serveStats(env, probeHits, res.Metrics)
		res.Metrics["wire.response_bytes"] = value(ratio(float64(respBytes), float64(replays)))
		solves.fill(res.Metrics)
		res.Metrics["estimator.recost_ratio"] = value(estimates.ratio())
		rc.tr.layerMetrics(res.Metrics)
		res.Metrics["serve.transport_us"] = res.Metrics["serve.rtt_us"] - res.Metrics["serve.handler_us"]
	}
	rec.finish(res)
	return res, nil
}
