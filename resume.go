package realhf

import (
	"context"
	"fmt"
	"io"

	"realhf/internal/checkpoint"
	"realhf/internal/estimator"
)

// Checkpoint writes the session's durable state to w in the
// internal/checkpoint wire format: the incumbent plan (SavePlan codec), its
// fingerprint, the profile-feedback calibration, and every campaign counter
// — exactly what Planner.ResumeTrain needs beyond the caller-re-supplied
// config and options to continue the campaign as if the process had never
// died. Checkpoints are deterministic: equal sessions write identical
// bytes. Call it between iterations (a WithIterationProgress callback is
// the natural place); the session lock serializes it against Steps from
// other goroutines.
func (t *Trainer) Checkpoint(w io.Writer) error {
	t.mu.Lock()
	state, err := t.checkpointLocked()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.Write(w, state)
}

// CheckpointFile durably checkpoints the session to path via
// internal/checkpoint's atomic temp-file-and-rename Save: a crash
// mid-checkpoint leaves the previous checkpoint intact, never a torn file.
func (t *Trainer) CheckpointFile(path string) error {
	t.mu.Lock()
	state, err := t.checkpointLocked()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.Save(path, state)
}

func (t *Trainer) checkpointLocked() (*checkpoint.State, error) {
	if t.closed {
		return nil, fmt.Errorf("realhf: %w", ErrTrainerClosed)
	}
	inc := t.incumbentLocked()
	if inc.bytes == nil && inc.err == nil {
		inc.bytes, inc.err = inc.plan.MarshalJSON()
	}
	if inc.err != nil {
		return nil, fmt.Errorf("realhf: checkpoint: marshal plan: %w", inc.err)
	}
	return &checkpoint.State{
		Version:         checkpoint.Version,
		Campaign:        t.durable,
		Nodes:           t.base.Nodes,
		PlannedGenLen:   t.plannedGenLen,
		Plan:            inc.bytes,
		PlanFingerprint: inc.fingerprint,
		Calibration:     t.calib.Factors(),
	}, nil
}

// ResumeTrain reopens a training session from a checkpoint written by
// Trainer.Checkpoint: the caller re-supplies the campaign's config and
// options (neither is serialized — code, schedules and factories cannot
// ride a checkpoint), the checkpoint supplies everything else. The restored
// session is exact: its next Step replans, charges and executes precisely
// as the uninterrupted session's would have — same plan fingerprint, same
// iteration counter, same accounting.
//
// The checkpoint's Nodes count overrides cfg's (shrinks and resizes applied
// before the crash carry over), and its plan must validate against the
// config's cluster shape, model cast and stored fingerprint — any
// disagreement wraps ErrInvalidConfig, because a checkpoint resumed under
// the wrong config can never succeed. So does a checkpoint no campaign
// could have written: a negative counter or total, fewer than one node, a
// negative planned GenLen or an invalid calibration factor.
func (p *Planner) ResumeTrain(ctx context.Context, r io.Reader, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	state, err := checkpoint.Read(r)
	if err != nil {
		return nil, fmt.Errorf("realhf: resume: %w: %w", err, ErrInvalidConfig)
	}
	return p.resumeTrain(ctx, state, cfg, opts...)
}

// ResumeTrainFile resumes from a checkpoint saved by Trainer.CheckpointFile.
func (p *Planner) ResumeTrainFile(ctx context.Context, path string, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	state, err := checkpoint.Load(path)
	if err != nil {
		return nil, fmt.Errorf("realhf: resume %s: %w: %w", path, err, ErrInvalidConfig)
	}
	return p.resumeTrain(ctx, state, cfg, opts...)
}

func (p *Planner) resumeTrain(ctx context.Context, state *checkpoint.State, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("realhf: resume cancelled: %w: %w", err, ErrSolveCanceled)
	}
	// checkpoint.Read range-checked the counters, scale and planned GenLen.
	for name, f := range state.Calibration {
		if err := estimator.CheckFactor(name, f); err != nil {
			return nil, fmt.Errorf("realhf: resume: %w: %w", err, ErrInvalidConfig)
		}
	}
	// The checkpointed scale wins over the config's: shrinks and resizes
	// applied before the crash are campaign state, not configuration.
	cfg.Nodes = state.Nodes
	t, err := p.openSession(cfg, opts)
	if err != nil {
		return nil, err
	}
	t.calib = estimator.NewCalibration(state.Calibration)

	// Rebuild the incumbent plan exactly as LoadExperiment rebuilds a saved
	// one, but against the checkpointed planned workload and under the
	// checkpointed calibration, so the session's problem caches pick up
	// where they left off.
	plannedCfg := t.base
	plannedCfg.GenLen = state.PlannedGenLen
	plan, _, err := p.loadPlan(state.Plan, "resume: checkpointed plan", plannedCfg, t.calib)
	if err != nil {
		return nil, err
	}
	// Fingerprint integrity: the stored bytes must decode to the very plan
	// that was checkpointed — a mismatch means the file was corrupted or
	// hand-edited, and silently resuming a different plan would poison
	// every downstream comparison.
	if fp := plan.Fingerprint(); fp != state.PlanFingerprint {
		return nil, fmt.Errorf("realhf: resume: plan fingerprint %s does not match checkpointed %s: %w",
			fp, state.PlanFingerprint, ErrInvalidConfig)
	}
	if err := t.start(plan, state.PlannedGenLen); err != nil {
		return nil, err
	}
	t.durable = state.Campaign
	return t, nil
}
