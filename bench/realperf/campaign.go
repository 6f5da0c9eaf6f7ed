package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"realhf"
	"realhf/internal/checkpoint"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/realloc"
	"realhf/internal/runtime"
)

// campaignGenLens is the state space of the campaign's generation-length
// random walk; campaignTurn is the chance per iteration that it moves.
var campaignGenLens = []int{256, 512, 1024, 2048}

const campaignTurn = 0.05

// campaignConfig is the operator's campaign: 16 nodes (128 GPUs), a 70B
// actor with 7B critic/reward models, PPO, batch 512.
func campaignConfig() realhf.ExperimentConfig {
	cfg, err := realhf.PaperExperiment("ppo", "llama70b", "llama7b-critic", 16, 512)
	if err != nil {
		panic(err) // the preset exists
	}
	return cfg
}

// genLenWalk is a seeded random walk over campaignGenLens.
func genLenWalk(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	at := 2
	for i := range out {
		if rng.Float64() < campaignTurn {
			if rng.Intn(2) == 0 {
				at = max(0, at-1)
			} else {
				at = min(len(campaignGenLens)-1, at+1)
			}
		}
		out[i] = campaignGenLens[at]
	}
	return out
}

// runCampaign: one operator driving one Trainer. Each operation is one
// Trainer.Step followed by Trainer.Checkpoint into a buffer (a checkpoint
// file's fsync would dominate and vary from run to run, so file saves are
// only timed in the traced run). Runtime dispatch over 128 workers, plan
// instantiation, cached replans, switch pricing and checkpoint encoding do
// the work.
func runCampaign(rc *runConfig) (*runResult, error) {
	ctx := context.Background()
	cfg := campaignConfig()
	walk := genLenWalk(rc.seed, 1<<16)
	opts := []realhf.TrainOption{realhf.WithGenLenSchedule(func(i int) int { return walk[i%len(walk)] })}
	var counting atomic.Pointer[countingTransport]
	if rc.tr != nil {
		opts = append(opts, realhf.WithWorkerPoolFactory(func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
			workers := make([]*runtime.ModelWorker, numGPUs)
			for i := range workers {
				workers[i] = runtime.NewModelWorker(i, memoryBytes)
			}
			ct := newCountingTransport(runtime.NewChanTransport(workers), numGPUs)
			counting.Store(ct)
			return runtime.NewWorkerPoolWith(workers, ct), nil
		}))
	}
	rec := newRecorder()
	var (
		planner *realhf.Planner
		trainer *realhf.Trainer
	)
	setup, err := repeatSetup(rc.setups(), func(bool) error {
		if trainer != nil {
			if err := trainer.Close(); err != nil {
				return err
			}
		}
		planner = realhf.NewPlanner(realhf.ClusterConfig{})
		var err error
		trainer, err = planner.Train(ctx, cfg, opts...)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer trainer.Close()

	quality := rc.scaled(2000)
	var (
		virtual    float64
		genLens    = make([]int, quality)
		ckpt       bytes.Buffer
		replay     *campaignReplay
		replans    int
		cached     int
		ckptBytes  int64
		live       *countingTransport // the timed Trainer's fleet transport
		sendsStart int64
	)
	if rc.tr != nil {
		replay = newCampaignReplay(cfg)
		defer replay.close()
		live = counting.Load()
		sendsStart = live.sends.Load()
	}
	elapsed := closedLoop(rc, 1, quality, rec, func(_, i int) {
		o := rc.tr.begin(0)
		defer o.finish()
		start := time.Now()
		id := o.start(0, "trainer.step")
		rep, err := trainer.Step(ctx)
		name := "trainer.step_steady"
		if err == nil && rep.Replanned {
			name = "trainer.step_replan"
		}
		o.end(id, name)
		if err == nil {
			ckpt.Reset()
			id = o.start(0, "checkpoint.encode")
			err = trainer.Checkpoint(&ckpt)
			o.end(id, "")
		}
		lat := time.Since(start)
		rec.attempt()
		if err == nil && rep.OOM {
			err = fmt.Errorf("out of memory: %v", rep.Errors)
		}
		if err != nil {
			rec.fail("iteration %d: %v", i, err)
			return
		}
		rec.observe(lat, false, false)
		if i < quality {
			virtual += rep.MakespanV + rep.ReallocSwitchCost
			genLens[i] = rep.GenLen
		}
		if o == nil {
			return
		}
		if rep.Replanned {
			replans++
			if rep.PlanCached {
				cached++
			}
		}
		ckptBytes += int64(ckpt.Len())
		if err := replay.step(o, ckpt.Bytes()); err != nil {
			rec.fail("iteration %d: replay: %v", i, err)
		}
	})
	res := rec.result(rc, "campaign", setup, elapsed)
	steps := rec.ops()

	// A campaign resumed from the last checkpoint must stand exactly where
	// the live one does.
	last := append([]byte(nil), ckpt.Bytes()...)
	rec.attempt()
	o := rc.tr.begin(0)
	id := o.start(0, "checkpoint.resume")
	resumed, err := planner.ResumeTrain(ctx, bytes.NewReader(last), cfg, opts...)
	o.end(id, "")
	o.finish()
	if err != nil {
		rec.fail("resume: %v", err)
	} else {
		if got, want := resumed.Stats(), trainer.Stats(); !reflect.DeepEqual(got, want) {
			rec.fail("resume: stats %+v, live campaign %+v", got, want)
		}
		if err := resumed.Close(); err != nil {
			rec.fail("resume: close: %v", err)
		}
	}

	q, err := campaignRatio(cfg, genLens, virtual)
	if err != nil {
		return nil, err
	}
	res.Metrics["plan_cost_ratio"] = value(q)
	res.Metrics["campaign_virtual_s"] = value(virtual)
	if rc.tr != nil {
		// checkpoint.save_file_ms: durable saves (temp file, fsync, rename)
		// are timed here, outside the timed phase, because fsync dominates
		// them and varies widely between runs.
		path := filepath.Join(rc.tmpDir, "campaign.ckpt")
		for k := 0; k < 3; k++ {
			o := rc.tr.begin(0)
			id := o.start(0, "checkpoint.save_file")
			err := trainer.CheckpointFile(path)
			o.end(id, "")
			o.finish()
			if err != nil {
				rec.fail("checkpoint file: %v", err)
			}
		}
		res.Metrics["runtime.sends_per_iter"] = value(ratio(float64(live.sends.Load()-sendsStart), float64(steps)))
		res.Metrics["runtime.reply_wait_us"] = value(live.meanWait() * us)
		res.Metrics["trainer.replan_cached_ratio"] = value(ratio(float64(cached), float64(replans)))
		res.Metrics["trainer.switches"] = value(trainer.Stats().Switches)
		res.Metrics["checkpoint.bytes"] = value(ratio(float64(ckptBytes), float64(steps)))
		rc.tr.layerMetrics(res.Metrics)
	}
	rec.finish(res)
	return res, nil
}

// campaignRatio is the campaign's virtual time over what the REAL-Heuristic
// plan is estimated to take for the same generation lengths, under the
// overlapped cost model the Trainer plans with.
func campaignRatio(cfg realhf.ExperimentConfig, genLens []int, virtual float64) (float64, error) {
	ref := realhf.NewPlanner(realhf.ClusterConfig{})
	heur := map[int]float64{}
	var total float64
	for _, g := range genLens {
		if g == 0 {
			continue // a failed iteration, already counted as a failure
		}
		h, ok := heur[g]
		if !ok {
			c := cfg
			c.GenLen = g
			c.PlanForOverlap = true
			exp, err := ref.Heuristic(c)
			if err != nil {
				return 0, fmt.Errorf("heuristic reference: %w", err)
			}
			h = exp.Estimate.Cost
			heur[g] = h
		}
		total += h
	}
	return virtual / total, nil
}

// campaignReplay replays, for the traced run, the layers a Trainer step
// drives internally, on the plan the step executed (read back from its
// checkpoint): plan instantiation, estimation, reallocation pricing between
// consecutive plans, and one Reset/Run of a worker pool of the same size.
type campaignReplay struct {
	cfg        realhf.ExperimentConfig
	loader     *realhf.Planner
	pool       *runtime.WorkerPool
	prev       *core.Plan
	loaded     map[string]*core.Plan        // plan fingerprint + planned GenLen -> plan
	estimators map[int]*estimator.Estimator // by planned GenLen
}

func newCampaignReplay(cfg realhf.ExperimentConfig) *campaignReplay {
	return &campaignReplay{
		cfg:        cfg,
		loader:     realhf.NewPlanner(realhf.ClusterConfig{ProblemCacheEntries: 16}),
		loaded:     map[string]*core.Plan{},
		estimators: map[int]*estimator.Estimator{},
	}
}

func (r *campaignReplay) close() {
	if r.pool != nil {
		_ = r.pool.Close() // an in-process pool; closing cannot fail
	}
}

func (r *campaignReplay) step(o *op, ckpt []byte) error {
	state, err := checkpoint.Read(bytes.NewReader(ckpt))
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s@%d", state.PlanFingerprint, state.PlannedGenLen)
	plan, ok := r.loaded[key]
	if !ok {
		cfg := r.cfg
		cfg.Nodes, cfg.GenLen, cfg.PlanForOverlap = state.Nodes, state.PlannedGenLen, true
		exp, err := r.loader.LoadExperimentBytes(state.Plan, cfg)
		if err != nil {
			return err
		}
		plan = exp.Plan
		r.loaded[key] = plan
	}
	replayPlan(o, plan)
	o.time("core.plan_fingerprint", func() { _ = plan.Fingerprint() })
	est, ok := r.estimators[state.PlannedGenLen]
	if !ok {
		est = estimatorFor(o, plan, true)
		r.estimators[state.PlannedGenLen] = est
	}
	replayEstimate(o, est, plan, nil)
	if r.prev != nil {
		o.time("realloc.switch_cost", func() { _ = realloc.SwitchCost(r.prev, plan, plan.Cluster) })
	}
	r.prev = plan
	if r.pool == nil {
		r.pool = runtime.NewWorkerPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	}
	o.time("runtime.reset", func() { err = r.pool.Reset(estimator.StaticPerGPU(plan)) })
	if err != nil {
		return err
	}
	o.time("runtime.run", func() {
		_, err = r.pool.Run(plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	})
	return err
}

// countingTransport wraps a worker fleet's transport to count the requests
// the master sends and time how long each waits for its reply.
type countingTransport struct {
	inner   runtime.Transport
	replies chan runtime.Reply
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	sends atomic.Int64

	mu      sync.Mutex
	sentAt  map[[2]int]time.Time // (gpu, request id) -> send time
	waitSum time.Duration
	waited  int64
}

func newCountingTransport(inner runtime.Transport, numGPUs int) *countingTransport {
	t := &countingTransport{
		inner: inner,
		// Sized like the channel transport's own reply buffer, so the wrapper
		// never holds back a reply the unwrapped fleet would have buffered.
		replies: make(chan runtime.Reply, 4*runtime.NumStreams*numGPUs+16),
		stop:    make(chan struct{}),
		sentAt:  map[[2]int]time.Time{},
	}
	t.wg.Add(1)
	go t.pump()
	return t
}

func (t *countingTransport) Send(gpu int, req runtime.Request) error {
	t.sends.Add(1)
	t.mu.Lock()
	t.sentAt[[2]int{gpu, req.ID}] = time.Now()
	t.mu.Unlock()
	return t.inner.Send(gpu, req)
}

func (t *countingTransport) Replies() <-chan runtime.Reply { return t.replies }

// pump forwards replies and times each against its request's send.
func (t *countingTransport) pump() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case rep := <-t.inner.Replies():
			now := time.Now()
			k := [2]int{rep.GPU, rep.ID}
			t.mu.Lock()
			if at, ok := t.sentAt[k]; ok {
				t.waitSum += now.Sub(at)
				t.waited++
				delete(t.sentAt, k)
			}
			t.mu.Unlock()
			select {
			case t.replies <- rep:
			case <-t.stop:
				return
			}
		}
	}
}

// Close stops the pump and closes the inner transport. Idempotent.
func (t *countingTransport) Close() error {
	var err error
	t.once.Do(func() {
		close(t.stop)
		err = t.inner.Close()
		t.wg.Wait()
	})
	return err
}

// meanWait is the mean send-to-reply time in nanoseconds.
func (t *countingTransport) meanWait() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.waitSum), float64(t.waited))
}
