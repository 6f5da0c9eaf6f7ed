package realhf

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"realhf/internal/checkpoint"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/realloc"
	"realhf/internal/runtime"
)

// Trainer is a long-lived, concurrency-safe training session — the
// execution-side twin of the Planner. Where Experiment.Run rebuilds model
// workers and a transport for every call, a Trainer owns a persistent
// worker fleet and transport across the whole campaign, resetting (not
// rebuilding) them between iterations, and it closes the planning↔execution
// loop the one-shot API leaves open:
//
//   - profile feedback: observed per-RPC durations from each iteration's
//     runtime report are folded back into the estimator as calibration
//     multipliers (observed / predicted per call), layered over the pure
//     cost model;
//   - replanning: when estimate-vs-observed drift exceeds the replan
//     threshold, or a WithGenLenSchedule workload ramp changes the config
//     (the paper's §8 limitation — generation length drifting over a
//     training run), the Trainer replans through the owning Planner's
//     caches with the calibrated estimator and switches plans only when the
//     predicted gain covers the switch cost;
//   - switch pricing: a plan switch is charged the parameter-reallocation
//     cost of moving every model from its old home layout to the new one,
//     priced exactly as §5 prices reallocation (parallel broadcasts, the
//     busiest GPU bounds the wall time), and accounted in the iteration
//     report and the campaign total;
//   - elastic resize: Resize replans the campaign onto a different node
//     count mid-training, charges the reallocation into the new mesh, and
//     swaps the worker fleet.
//
// Calibrated replans live in calibration-keyed planner problems, so a
// Trainer never poisons the session's default plan or cost caches: a plain
// Planner.Plan for the same config before and after a campaign returns
// byte-identical estimates.
//
// Step, Campaign, Resize, Stats and Close may be called from any goroutine;
// the session serializes them internally (iterations are inherently
// sequential — each consumes the previous one's profile feedback).
type Trainer struct {
	planner *Planner

	mu   sync.Mutex
	base ExperimentConfig // defaults applied; GenLen/Nodes evolve with schedule and resizes
	opts trainOptions
	run  RunOptions

	pool *runtime.WorkerPool
	hw   hardware.Cluster // execution cluster (run-option scaling applied)

	inc           *incumbent // current execution plan (assignments)
	plannedGenLen int        // GenLen the current plan was last (re)considered at
	calib         *estimator.Calibration

	// steady is what the last step derived from its inputs (stepKey):
	// a step with the same inputs reuses it and goes straight to Reset
	// and Execute.
	steady *stepState

	// durable is the session's counters, accounting and drift flag: what
	// checkpoints carry beyond the plan, scale and calibration.
	durable checkpoint.Campaign
	closed  bool
}

// TrainOption customizes a training session.
type TrainOption func(*trainOptions)

type trainOptions struct {
	progress    func(IterationReport)
	genLen      func(iter int) int
	threshold   float64
	frozen      bool
	runOpts     *RunOptions
	poolFactory WorkerPoolFactory
}

// defaultReplanThreshold is the estimate-vs-observed relative drift above
// which the Trainer replans (15%): comfortably above the estimator's
// residual error on predictable workloads (Fig. 12 reports single-digit
// percentages there), and comfortably below the drift a real generation
// length change produces.
const defaultReplanThreshold = 0.15

// defaultWorkerTimeout is the liveness bound Trainer sessions run under
// when RunOptions.WorkerTimeout is unset: generous against scheduling
// jitter (the simulated fleet answers in microseconds), tight enough that
// a dead worker costs a campaign seconds, not forever.
const defaultWorkerTimeout = 2 * time.Second

// WorkerPoolFactory builds the worker fleet a Trainer executes on — called
// at session open and whenever the campaign moves to a new node count (a
// Resize, or a shrink-replan after a worker loss). Pools are rebuilt, never
// patched, so adopted transports and custom deployments work uniformly. The
// default wraps runtime.NewWorkerPool (in-process channel workers). Custom
// factories are how campaigns run over other transports: build the fleet,
// wrap its transport (e.g. runtime.NewFaultyTransport for chaos tests, or a
// TCPTransport fleet), and return runtime.NewWorkerPoolWith. A factory runs
// with the session locked, so a call back into the Trainer deadlocks;
// WithIterationProgress is the re-entrant hook.
type WorkerPoolFactory func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error)

// WithWorkerPoolFactory routes every worker-fleet (re)build through fn.
// The Trainer owns the returned pools and closes the old pool before
// requesting a replacement; any caller-owned far side (a TCP worker server,
// say) stays the caller's to tear down. A move whose rebuild fails changes
// nothing else (the plan, node count, counters and charges stay as they
// were), but the old fleet is already closed, so every later Step fails
// too. fn runs with the session locked and must not call back into the
// Trainer.
func WithWorkerPoolFactory(fn WorkerPoolFactory) TrainOption {
	return func(o *trainOptions) { o.poolFactory = fn }
}

// WithIterationProgress streams every iteration's report to fn as the
// campaign runs — makespan, observed per-RPC durations, drift, charged
// reallocation cost and the plan fingerprint. fn runs on the training
// critical path between iterations (with the session unlocked, so it may
// call back into the Trainer) and must be fast.
func WithIterationProgress(fn func(IterationReport)) TrainOption {
	return func(o *trainOptions) { o.progress = fn }
}

// WithGenLenSchedule makes the workload dynamic: iteration i generates
// fn(i) tokens instead of the config's fixed GenLen. This is the §8
// scenario — generation length drifting over a training run — and a change
// in the scheduled length is a replan trigger (the Trainer still switches
// plans only when the predicted gain covers the reallocation cost). fn runs
// inside Step, Campaign and Resize with the session locked, so it must not
// call back into the Trainer (Stats from fn deadlocks); WithIterationProgress
// is the re-entrant hook.
func WithGenLenSchedule(fn func(iter int) int) TrainOption {
	return func(o *trainOptions) { o.genLen = fn }
}

// WithReplanThreshold sets the estimate-vs-observed relative drift (e.g.
// 0.15 for 15%) above which profile feedback triggers a replan. Values <= 0
// are rejected by Train.
func WithReplanThreshold(frac float64) TrainOption {
	return func(o *trainOptions) { o.threshold = frac }
}

// WithFrozenPlan pins the iteration-0 plan for the whole campaign: no
// profile feedback, no replanning, no switch charges — the one-shot
// baseline the replanning Trainer is measured against (and the only mode
// the pre-Trainer API could express). Reports still stream. Two
// exceptions move the plan anyway: an explicit Resize, and a lost worker,
// which forces a shrink-replan (the frozen plan's mesh no longer exists) —
// survival outranks baseline purity.
func WithFrozenPlan() TrainOption {
	return func(o *trainOptions) { o.frozen = true }
}

// WithTrainRunOptions executes every iteration under the given run options
// instead of DefaultRunOptions. Options are validated by Train with the
// same shared checker as Run/RunWith/WithRunOptions. Note that cluster
// overrides (bandwidth, latency, memory scales) apply to execution only —
// planning still models the unscaled cluster, so the resulting
// estimate-vs-observed drift is real feedback the session calibrates away.
func WithTrainRunOptions(opts RunOptions) TrainOption {
	return func(o *trainOptions) { o.runOpts = &opts }
}

// IterationReport describes one executed campaign iteration.
type IterationReport struct {
	// Iter is the iteration index within the campaign (0-based).
	Iter int
	// GenLen and Nodes are the workload and cluster scale this iteration
	// executed at.
	GenLen, Nodes int
	// MakespanV is the iteration's virtual wall time (excluding any plan
	// switch; see ReallocSwitchCost). EstMakespanV is what the (calibrated)
	// estimator predicted for the executed plan under this iteration's
	// workload — the pair the session's drift detection and the Fig. 12
	// estimator-accuracy comparison are built from.
	MakespanV    float64
	EstMakespanV float64
	// ThroughputPFLOPs is the iteration's end-to-end throughput.
	ThroughputPFLOPs float64
	// CallTimes are the observed per-RPC durations from the runtime report;
	// EstCallTimes are the (calibrated) estimator's predictions for the same
	// calls. Their ratio is the profile feedback folded into the session's
	// calibration.
	CallTimes, EstCallTimes map[string]float64
	// Drift is the largest relative |observed-estimated|/estimated over the
	// iteration's calls, measured before this iteration's feedback was
	// folded in. Exceeding the replan threshold schedules a replan.
	Drift float64
	// Replanned reports that a replan ran before this iteration; Switched
	// that it actually changed the plan (a replan whose candidate cannot pay
	// for its own reallocation keeps the incumbent). PlanCached reports the
	// replan was answered from the Planner's plan cache without a search.
	Replanned, Switched, PlanCached bool
	// ReallocSwitchCost is the §5-priced parameter-reallocation cost charged
	// between the previous iteration and this one (0 when the plan was
	// kept). It is included in the campaign's total makespan.
	ReallocSwitchCost float64
	// PlanFingerprint identifies the executed plan's assignments.
	PlanFingerprint string
	// WorkerLost reports that one or more workers died during this
	// iteration's attempts; LostGPUs lists them in detection order. Each
	// loss evicted the failed device's host node and forced a
	// shrink-replan (Replanned/Switched are set, ReallocSwitchCost charges
	// the move), after which the iteration re-executed on the survivor
	// mesh — so MakespanV and Nodes describe the degraded, surviving run.
	WorkerLost bool
	LostGPUs   []int
	// OOM and Errors surface worker diagnostics.
	OOM    bool
	Errors []string
}

// CampaignReport aggregates a multi-iteration run.
type CampaignReport struct {
	Iterations []IterationReport
	// CompletedIterations counts iterations that fully executed —
	// len(Iterations), maintained explicitly so a campaign that ends early
	// (context cancellation or a runtime error) still hands back a
	// consistent partial report: the accounting below always describes
	// exactly the completed prefix, whatever ended the campaign.
	CompletedIterations int
	// TotalMakespanV is the campaign's virtual wall time: the sum of
	// iteration makespans plus every charged plan-switch reallocation cost.
	TotalMakespanV float64
	// SwitchCostV is the reallocation total alone.
	SwitchCostV float64
	// Replans counts replan attempts; Switches counts adopted plan changes.
	Replans, Switches int
	// WorkerFailures counts workers lost (and survived via shrink-replan)
	// across the campaign.
	WorkerFailures int
}

// TrainerStats snapshots a session.
type TrainerStats struct {
	// Iterations is the number of iterations executed so far.
	Iterations int
	// Replans counts completed replans (drift- or schedule-triggered,
	// resizes and worker-loss shrinks; a failed one changes nothing);
	// Switches counts the ones that changed the plan.
	Replans, Switches int
	// SwitchCostV and TotalMakespanV mirror the campaign accounting.
	SwitchCostV, TotalMakespanV float64
	// WorkerFailures counts workers lost (and survived) so far.
	WorkerFailures int
	// Nodes is the current cluster scale.
	Nodes int
	// PlanFingerprint identifies the current plan.
	PlanFingerprint string
	// CalibrationFactors is the current profile-feedback state: per-call
	// observed/predicted multipliers (nil when the pure cost model has been
	// accurate so far).
	CalibrationFactors map[string]float64
}

// Train opens a training session for cfg: it plans the first iteration
// through the session's caches (exactly as Plan would), then hands the plan
// to a persistent worker fleet the returned Trainer drives across
// iterations. The context governs the initial planning only; each
// Step/Campaign call takes its own.
//
// A GenLen schedule (WithGenLenSchedule) makes iteration 0's length the
// schedule's, not the config's. Close the Trainer to release its workers.
func (p *Planner) Train(ctx context.Context, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	t, err := p.openSession(cfg, opts)
	if err != nil {
		return nil, err
	}
	exp, err := p.Plan(ctx, t.base)
	if err != nil {
		return nil, err
	}
	if err := t.start(exp.Plan, exp.Config.GenLen); err != nil {
		return nil, err
	}
	return t, nil
}

// openSession resolves a session's options, run options and canonical
// config — the one open path Train and ResumeTrain share, so a resumed
// session sits in exactly the state the uninterrupted one would. The
// returned Trainer has no plan or fleet until start.
func (p *Planner) openSession(cfg ExperimentConfig, opts []TrainOption) (*Trainer, error) {
	o := trainOptions{threshold: defaultReplanThreshold}
	for _, fn := range opts {
		fn(&o)
	}
	if o.threshold <= 0 {
		return nil, fmt.Errorf("realhf: replan threshold %v must be positive: %w", o.threshold, ErrInvalidConfig)
	}
	run := DefaultRunOptions()
	if o.runOpts != nil {
		run = *o.runOpts
	}
	if err := run.Validate(); err != nil {
		return nil, err
	}
	cfg, _, err := p.prepare(cfg, nil)
	if err != nil {
		return nil, err
	}
	// Reject a scale that breaks the execution cluster before any search.
	if _, err := run.scaleCluster(cfg.cluster()); err != nil {
		return nil, err
	}
	// Align the planning objective with the engine the campaign executes on:
	// with communication overlap enabled (the default), every session plan —
	// initial, replans, resizes — is searched and estimated under the
	// overlapped cost semantics. Replanning decisions compare estimates
	// against observed makespans, and comparing a serialized estimate
	// against an overlapped runtime would systematically mis-adopt plans.
	if run.OverlapComm {
		cfg.PlanForOverlap = true
	}
	if o.genLen != nil {
		g0 := o.genLen(0)
		if g0 <= 0 {
			return nil, fmt.Errorf("realhf: GenLen schedule returned %d for iteration 0: %w", g0, ErrInvalidConfig)
		}
		cfg.GenLen = g0
	}
	if o.poolFactory == nil {
		o.poolFactory = func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
			return runtime.NewWorkerPool(numGPUs, memoryBytes), nil
		}
	}
	if run.WorkerTimeout == 0 {
		run.WorkerTimeout = defaultWorkerTimeout
	}
	return &Trainer{planner: p, base: cfg, opts: o, run: run}, nil
}

// start adopts the session's first plan, last (re)considered at
// plannedGenLen, and opens a worker fleet for the plan's cluster.
func (t *Trainer) start(plan *core.Plan, plannedGenLen int) error {
	if err := t.openFleetLocked(plan.Cluster); err != nil {
		return fmt.Errorf("realhf: %w", err)
	}
	t.inc = &incumbent{plan: plan, fingerprint: plan.Fingerprint()}
	t.plannedGenLen = plannedGenLen
	return nil
}

// openFleetLocked opens the session's worker fleet for cluster, scaled by
// the run options, through the pool factory — the one place a Trainer
// builds a fleet: at open, and when a replan moves the campaign to a new
// node count. The previous fleet, if any, is closed first, as the factory
// contract promises; t.pool and t.hw change only when the new fleet opens.
func (t *Trainer) openFleetLocked(cluster hardware.Cluster) error {
	hw, err := t.run.scaleCluster(cluster)
	if err != nil {
		return err
	}
	if t.pool != nil {
		if err := t.pool.Close(); err != nil {
			return fmt.Errorf("closing worker fleet: %w", err)
		}
	}
	pool, err := t.opts.poolFactory(hw.NumGPUs(), hw.GPU.MemoryBytes)
	if err != nil {
		return fmt.Errorf("worker pool for %d GPUs: %w", hw.NumGPUs(), err)
	}
	pool.SetWorkerTimeout(t.run.WorkerTimeout)
	t.pool, t.hw = pool, hw
	return nil
}

// Step executes the next campaign iteration: it applies the GenLen
// schedule, replans if profile feedback or the workload demands it (never
// in a frozen session), charges any plan-switch reallocation, resets the
// worker fleet, runs the iteration, and folds the observed per-RPC
// durations back into the session's calibration.
func (t *Trainer) Step(ctx context.Context) (*IterationReport, error) {
	return t.step(ctx)
}

// step runs one locked iteration and then streams its report with the lock
// released, so a WithIterationProgress callback may freely call back into
// the session (Stats, even Resize) without deadlocking. The lock is released
// by a defer, so a caller's schedule or pool factory that panics inside the
// iteration does not leave the session locked.
func (t *Trainer) step(ctx context.Context) (*IterationReport, error) {
	rep, err := func() (*IterationReport, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.stepLocked(ctx)
	}()
	if err == nil && t.opts.progress != nil {
		t.opts.progress(*rep)
	}
	return rep, err
}

func (t *Trainer) stepLocked(ctx context.Context) (*IterationReport, error) {
	if t.closed {
		return nil, fmt.Errorf("realhf: %w", ErrTrainerClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("realhf: training step cancelled: %w", err)
	}
	iter := t.durable.Iteration
	workCfg := t.base
	if t.opts.genLen != nil {
		g := t.opts.genLen(iter)
		if g <= 0 {
			return nil, fmt.Errorf("realhf: GenLen schedule returned %d for iteration %d: %w", g, iter, ErrInvalidConfig)
		}
		workCfg.GenLen = g
	}

	report := IterationReport{Iter: iter, GenLen: workCfg.GenLen, Nodes: workCfg.Nodes}
	if !t.opts.frozen && (workCfg.GenLen != t.plannedGenLen || t.durable.Drifted) {
		switched, cached, err := t.replanLocked(ctx, workCfg)
		if err != nil {
			return nil, err
		}
		report.Replanned, report.Switched, report.PlanCached = true, switched, cached
	}

	// Execute, surviving worker loss: a *runtime.ErrWorkerLost from Reset or
	// Execute (a dead transport stream, or no reply within the worker
	// timeout) evicts the failed device's node, shrink-replans onto
	// the survivors and re-executes the whole iteration there. The failed
	// attempt's partial progress is discarded — virtual makespans stay
	// deterministic functions of the executed plan. Anything that is not a
	// worker loss aborts the step as before.
	var (
		st  *stepState
		rep *runtime.Report
	)
	for {
		// The replan loop is bounded by the shrinking mesh (shrinkLocked
		// fails out at one node), but each attempt re-checks the caller's
		// context so a cancellation never waits on another full attempt.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("realhf: training step cancelled: %w", err)
		}
		var err error
		if st, err = t.stepStateLocked(workCfg); err != nil {
			return nil, err
		}
		if err = t.pool.Reset(st.prog.StaticPerGPU()); err == nil {
			if rep, err = t.pool.Execute(ctx, st.prog); err == nil {
				break
			}
			err = fmt.Errorf("realhf: iteration %d failed: %w", iter, err)
		}
		// Only a failed attempt gets here: errors.As makes lost escape, and
		// a steady step must not allocate it.
		lost := (*runtime.ErrWorkerLost)(nil)
		if !errors.As(err, &lost) {
			return nil, err
		}
		if err := t.shrinkLocked(ctx, &workCfg, &report, lost); err != nil {
			return nil, err
		}
	}

	report.MakespanV = rep.MakespanV
	report.EstMakespanV = st.est.TimeCost
	report.CallTimes = rep.CallTimes
	// st.est is the shared estimate the Planner's cost cache and later steps
	// read, so the report gets its own copy for the caller to keep or edit.
	report.EstCallTimes = maps.Clone(st.est.CallTimes)
	report.OOM = rep.OOM
	report.Errors = rep.Errors
	report.PlanFingerprint = t.inc.fingerprint
	report.ReallocSwitchCost = t.durable.PendingSwitchCostV
	if !rep.OOM {
		report.ThroughputPFLOPs = estimator.Throughput(st.exec, rep.MakespanV)
	}

	// Profile feedback: compare what ran against what the (calibrated)
	// estimator predicted, fold the ratios into the calibration, and flag a
	// replan when the model was off by more than the threshold. OOM
	// iterations carry truncated durations and are not folded in.
	if !rep.OOM {
		drift, next := foldFeedback(t.calib, rep.CallTimes, st.est.CallTimes)
		report.Drift = drift
		if !t.opts.frozen {
			t.calib = next
			t.durable.Drifted = drift > t.opts.threshold
		}
	}

	d := &t.durable
	d.TotalMakespanV += rep.MakespanV + d.PendingSwitchCostV
	d.SwitchCostV += d.PendingSwitchCostV
	d.PendingSwitchCostV = 0
	d.Iteration++
	return &report, nil
}

// foldFeedback derives the post-iteration calibration and the observed
// drift: for every call with both an observed and a predicted duration, the
// new absolute factor is observed/pure-model-prediction (obtained by
// multiplying the current factor by observed/calibrated-prediction).
func foldFeedback(cur *estimator.Calibration, observed, predicted map[string]float64) (float64, *estimator.Calibration) {
	var drift float64
	factors := cur.Factors()
	if factors == nil {
		factors = map[string]float64{}
	}
	for name, obs := range observed {
		pred, ok := predicted[name]
		if !ok || pred <= 0 || obs <= 0 {
			continue
		}
		ratio := obs / pred
		if d := ratio - 1; d > drift {
			drift = d
		} else if d := 1 - ratio; d > drift {
			drift = d
		}
		f := cur.Factor(name) * ratio
		factors[name] = f
	}
	return drift, estimator.NewCalibration(factors)
}

// replanLocked moves the session's plan to cfg, the session's base config
// at a GenLen and node count: the one path drift and schedule replans,
// worker-loss shrinks and Resize take. It re-searches cfg through the owning
// Planner's caches under the session calibration, warm-started from the
// incumbent re-attached to cfg when that still validates, so the fresh
// estimate can never regress below keeping the incumbent. A new node count
// always adopts the fresh plan, on a fleet rebuilt at the new size; at the
// same count the fresh plan is adopted only when its predicted cost plus
// the §5-priced switch reallocation beats the incumbent on cfg (or the
// incumbent no longer validates there). The switch is priced on the larger
// of the two clusters, whose device range spans both meshes.
//
// The session changes only when the move succeeds: an error leaves the
// plan, node count, counters and pending charge as they were (though a
// failed rebuild has already closed the old fleet). A successful replan
// marks the workload handled, adopted or not: the schedule must change (or
// new drift appear) before the next one.
func (t *Trainer) replanLocked(ctx context.Context, cfg ExperimentConfig) (switched, cached bool, err error) {
	// Validate before attach, which sizes per-GPU state by the cluster.
	if err := cfg.validate(); err != nil {
		return false, false, err
	}
	opts := []AutoOption{withCalibration(t.calib)}
	stalePlan, staleEst, staleErr := t.planner.attach(cfg, t.calib, t.inc.plan.Assign)
	if staleErr == nil {
		opts = append(opts, WithWarmStart(stalePlan))
	}
	exp, err := t.planner.Plan(ctx, cfg, opts...)
	if err != nil {
		return false, false, err
	}
	resized := cfg.Nodes != t.base.Nodes
	oldHW := t.hw
	if resized {
		if err := t.openFleetLocked(exp.Cluster); err != nil {
			return false, false, err
		}
	}
	// The move can no longer fail: price it, then commit.
	fingerprint := exp.Plan.Fingerprint()
	if resized || fingerprint != t.inc.fingerprint {
		priceHW := oldHW
		if t.hw.NumGPUs() > priceHW.NumGPUs() {
			priceHW = t.hw
		}
		cost := realloc.SwitchCost(t.inc.plan, exp.Plan, priceHW)
		switched = resized || staleErr != nil || exp.Estimate.Cost+cost < staleEst.Cost
		if switched {
			t.durable.PendingSwitchCostV += cost
			t.durable.Switches++
			t.inc = &incumbent{plan: exp.Plan, fingerprint: fingerprint}
		}
	}
	t.durable.Replans++
	t.durable.Drifted = false
	t.base.Nodes = cfg.Nodes
	t.plannedGenLen = exp.Config.GenLen
	return switched, exp.Cached, nil
}

// shrinkLocked recovers from a lost worker: it evicts the failed device's
// host node from the campaign and replans onto the surviving mesh
// (replanLocked), after which the step re-executes there. The inverse of
// Resize, forced rather than elective — it runs even in WithFrozenPlan
// sessions, because the frozen plan's mesh no longer exists; survival
// outranks baseline purity. When no surviving node remains (or the shrink
// replan itself fails) it returns an error wrapping ErrWorkerLost, ending
// the campaign.
func (t *Trainer) shrinkLocked(ctx context.Context, workCfg *ExperimentConfig, report *IterationReport, lost *runtime.ErrWorkerLost) error {
	report.WorkerLost = true
	report.LostGPUs = append(report.LostGPUs, lost.GPU)
	t.durable.WorkerFailures++
	if t.base.Nodes <= 1 {
		return fmt.Errorf("realhf: iteration %d: worker gpu %d lost and no surviving nodes remain: %w: %w",
			report.Iter, lost.GPU, ErrWorkerLost, lost)
	}
	workCfg.Nodes = t.base.Nodes - 1
	switched, cached, err := t.replanLocked(ctx, *workCfg)
	if err != nil {
		return fmt.Errorf("realhf: iteration %d: shrink to %d nodes after losing worker gpu %d: %w: %w",
			report.Iter, workCfg.Nodes, lost.GPU, ErrWorkerLost, err)
	}
	report.Nodes = workCfg.Nodes
	report.Replanned, report.Switched, report.PlanCached = true, switched, cached
	return nil
}

// instantiateLocked re-attaches the current assignments to workCfg's graph
// (the workload may have moved since the plan was searched) and estimates
// it through the planner's calibrated problem state. The returned execution
// plan carries the Trainer's (possibly run-option-scaled) cluster; the
// estimate is always computed against the canonical unscaled problem, so
// shared cost caches stay consistent.
func (t *Trainer) instantiateLocked(workCfg ExperimentConfig) (*core.Plan, *estimator.Result, error) {
	plan, res, err := t.planner.attach(workCfg, t.calib, t.inc.plan.Assign)
	if err != nil {
		return nil, nil, err
	}
	exec := plan.Clone()
	exec.Cluster = t.hw
	return exec, res, nil
}

// stepKey is everything a step's executed plan, estimate and program derive
// from: the workload (the session's base config at the step's GenLen — the
// base's only other evolving field is Nodes), the execution cluster, the
// calibration and the incumbent. The incumbent is compared by identity,
// which is sound because the session never mutates a plan in place: a
// replan, resize or shrink adopts a new one.
type stepKey struct {
	genLen, nodes int
	hw            hardware.Cluster
	calib         string
	plan          *core.Plan
}

// stepState is what a step derives from its stepKey: the incumbent
// instantiated for the step's workload, its estimate and compiled program.
// It is immutable once built.
type stepState struct {
	key  stepKey
	exec *core.Plan
	est  *estimator.Result
	prog *runtime.Program
}

// stepStateLocked returns what the step at workCfg executes, deriving it only
// when the step's inputs changed since the last step — a steady step pays
// for fencing and dispatch alone. workCfg must be t.base at the step's
// GenLen.
func (t *Trainer) stepStateLocked(workCfg ExperimentConfig) (*stepState, error) {
	key := stepKey{genLen: workCfg.GenLen, nodes: t.base.Nodes, hw: t.hw, calib: t.calib.Key(), plan: t.inc.plan}
	if t.steady != nil && t.steady.key == key {
		return t.steady, nil
	}
	exec, est, err := t.instantiateLocked(workCfg)
	if err != nil {
		return nil, err
	}
	prog, err := runtime.Compile(exec, runtime.Options{UseCUDAGraph: t.run.UseCUDAGraph, OverlapComm: t.run.OverlapComm})
	if err != nil {
		return nil, fmt.Errorf("realhf: iteration %d failed: %w", t.durable.Iteration, err)
	}
	t.steady = &stepState{key: key, exec: exec, est: est, prog: prog}
	return t.steady, nil
}

// incumbent is the session's current plan and what step reports, Stats and
// checkpoints derive from it: its fingerprint, taken where the plan is
// adopted, and its SavePlan bytes (or the error marshaling them), which the
// plan's first checkpoint fills in and never changes. Adopting a plan
// replaces the incumbent rather than updating it, because Checkpoint writes
// the bytes after releasing t.mu.
type incumbent struct {
	plan        *core.Plan
	fingerprint string
	bytes       []byte
	err         error
}

// Campaign runs n iterations back to back, aggregating their reports. A
// context cancellation mid-campaign returns the completed prefix together
// with the wrapped error — the accounting mirrors Report.IterTime's
// partial-run semantics: only iterations that actually ran are summed.
// Each iteration locks the session individually (so progress callbacks run
// unlocked); a Step or Resize issued concurrently from another goroutine
// may therefore interleave between a campaign's iterations, never inside
// one.
func (t *Trainer) Campaign(ctx context.Context, n int) (*CampaignReport, error) {
	out := &CampaignReport{}
	for i := 0; i < n; i++ {
		rep, err := t.step(ctx)
		if err != nil {
			return out, err
		}
		out.Iterations = append(out.Iterations, *rep)
		out.CompletedIterations = len(out.Iterations)
		out.TotalMakespanV += rep.MakespanV + rep.ReallocSwitchCost
		out.SwitchCostV += rep.ReallocSwitchCost
		if rep.Replanned {
			out.Replans++
		}
		if rep.Switched {
			out.Switches++
		}
		out.WorkerFailures += len(rep.LostGPUs)
	}
	return out, nil
}

// Resize moves the campaign to a different node count mid-training: the
// session replans on the new mesh as every replan does (through the
// Planner's caches, calibrated with everything profiled so far and
// warm-started from the incumbent), charges the parameter reallocation into
// the new layout — priced on the larger of the two clusters, whose device
// range spans both meshes — and rebuilds the worker fleet at the new size.
// The cost lands on the next iteration's report. A node count the config
// cannot describe wraps ErrInvalidConfig; a failed Resize leaves the plan,
// node count and accounting as they were.
func (t *Trainer) Resize(ctx context.Context, nodes int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("realhf: %w", ErrTrainerClosed)
	}
	if nodes == t.base.Nodes {
		return nil
	}
	cfg := t.base
	cfg.Nodes = nodes
	// Plan the new mesh at the workload the next iteration will actually
	// execute: with an active schedule, the upcoming iteration's length —
	// not the pre-resize one — or the very next Step would immediately
	// replan (and possibly charge a second switch) on the fresh mesh.
	cfg.GenLen = t.plannedGenLen
	if t.opts.genLen != nil {
		if g := t.opts.genLen(t.durable.Iteration); g > 0 {
			cfg.GenLen = g
		}
	}
	if _, _, err := t.replanLocked(ctx, cfg); err != nil {
		return fmt.Errorf("realhf: resize to %d nodes: %w", nodes, err)
	}
	return nil
}

// Stats snapshots the session counters and profile-feedback state.
func (t *Trainer) Stats() TrainerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.durable
	return TrainerStats{
		Iterations:         d.Iteration,
		Replans:            d.Replans,
		Switches:           d.Switches,
		SwitchCostV:        d.SwitchCostV,
		TotalMakespanV:     d.TotalMakespanV,
		WorkerFailures:     d.WorkerFailures,
		Nodes:              t.base.Nodes,
		PlanFingerprint:    t.inc.fingerprint,
		CalibrationFactors: t.calib.Factors(),
	}
}

// Close releases the session's worker fleet. Idempotent; a closed Trainer
// rejects further Steps.
func (t *Trainer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.pool.Close()
}
