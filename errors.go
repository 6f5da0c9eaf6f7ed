package realhf

import (
	"errors"
	"fmt"
)

// The package's error taxonomy. Every planning entry point — Planner.Plan,
// Planner.Heuristic, Planner.LoadExperiment, Planner.Train,
// Planner.ResumeTrain — classifies its failures under one of these
// sentinels, so callers (and the plan server in internal/serve, which maps
// them onto HTTP status codes) dispatch with errors.Is instead of string
// matching:
//
//   - ErrInvalidConfig: the request itself is malformed — a non-positive
//     Nodes count, an empty or inconsistent RPC list, an unknown ModelType
//     or algorithm name, invalid calibration factors, or run options that
//     fail RunOptions.Validate (ErrInvalidRunOptions wraps ErrInvalidConfig,
//     so one errors.Is covers both). Retrying the identical request can
//     never succeed. HTTP 400.
//   - ErrInfeasibleMemory: the request was well-formed but no plan fits the
//     cluster's device memory — Experiment.FeasibleMemory reports it for a
//     solved experiment whose best plan still exceeds HBM. Retrying needs a
//     different workload or a bigger cluster. HTTP 422.
//   - ErrSolveCanceled: the solve was abandoned — the caller's context was
//     canceled or its deadline expired before or during the search. The
//     context cause (context.Canceled or context.DeadlineExceeded) stays in
//     the chain, so errors.Is distinguishes disconnects from timeouts.
//     HTTP 499.
//   - ErrWorkerLost: a campaign's worker fleet lost a device and could not
//     recover — the Trainer shrinks onto the survivors automatically, so
//     this sentinel only surfaces when no survivors remain (or recovery
//     itself failed). The runtime's typed *runtime.ErrWorkerLost (which
//     carries the GPU index) stays in the chain for errors.As. Retrying
//     needs capacity the caller must supply. HTTP 503.
var (
	// ErrInvalidConfig is wrapped by every rejection of a malformed
	// ExperimentConfig, RPC list, option set or calibration.
	ErrInvalidConfig = errors.New("invalid experiment config")
	// ErrInfeasibleMemory is wrapped when no memory-feasible plan exists for
	// a workload on its cluster (the searched optimum still overflows HBM).
	ErrInfeasibleMemory = errors.New("no memory-feasible plan")
	// ErrSolveCanceled is wrapped when a plan request is abandoned by
	// context cancellation or deadline expiry, before or during the solve.
	ErrSolveCanceled = errors.New("solve canceled")
	// ErrWorkerLost is wrapped when a training campaign loses a worker it
	// cannot recover from: the last surviving node died, the shrink-replan
	// onto the survivor mesh failed, or a Step could not rebuild the fleet a
	// failed rebuild left it without. Recoverable losses are
	// absorbed by the Trainer (shrink-replan) and reported through
	// IterationReport.WorkerLost instead of an error.
	ErrWorkerLost = errors.New("worker lost")
)

// ErrInvalidRunOptions is wrapped by every rejection of malformed
// RunOptions, so callers can errors.Is across Run, RunWith, WithRunOptions
// and the Trainer options. It is itself part of the config taxonomy:
// errors.Is(err, ErrInvalidConfig) is true for every run-option rejection.
var ErrInvalidRunOptions = fmt.Errorf("%w: invalid run options", ErrInvalidConfig)

// ErrTrainerClosed is wrapped by every Trainer method called after Close.
// The session's resources are released; callers should open a new Trainer
// rather than retry.
var ErrTrainerClosed = errors.New("trainer is closed")

// FeasibleMemory reports whether the experiment's chosen plan fits device
// memory according to the planner's estimate: nil when it does, an error
// wrapping ErrInfeasibleMemory (with the peak-device demand and the HBM
// capacity) when even the best plan found would OOM. A non-nil error means
// the workload needs a smaller batch/sequence length or a larger cluster —
// re-searching the same problem cannot help.
func (e *Experiment) FeasibleMemory() error {
	if e.Estimate == nil || !e.Estimate.OOM {
		return nil
	}
	return fmt.Errorf("realhf: %w: best plan needs %.1f GiB on its most loaded device, cluster GPUs have %.1f GiB",
		ErrInfeasibleMemory,
		float64(e.Estimate.MaxMem)/(1<<30),
		float64(e.Cluster.GPU.MemoryBytes)/(1<<30))
}
