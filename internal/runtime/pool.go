package runtime

import (
	"fmt"
	"sync"
	"time"

	"realhf/internal/core"
)

// WorkerPool owns a set of model workers and the transport that drives them,
// both persisting across runs — the execution-side state a long-lived
// training session reuses every iteration, where the one-shot Run path
// rebuilds workers and transport per call. Between iterations the pool is
// Reset: every worker is fenced and drained to quiescence, memory ledgers
// return to zero, and each device's static footprint is replaced (the next
// iteration may execute a different plan). A session that changes its device
// count builds a new pool rather than patching this one.
//
// A pool serializes its own operations; run one iteration at a time.
type WorkerPool struct {
	mu           sync.Mutex
	workers      []*ModelWorker
	transport    Transport
	fenceTimeout time.Duration
	closed       bool
	// fenced marks, per worker, the fences answered during a drain; reused
	// across Resets.
	fenced []bool
}

// NewWorkerPool starts a pool of numGPUs workers with the given device
// memory over the in-process channel transport.
func NewWorkerPool(numGPUs int, memoryBytes int64) *WorkerPool {
	workers := make([]*ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = NewModelWorker(i, memoryBytes)
	}
	return &WorkerPool{workers: workers, transport: NewChanTransport(workers)}
}

// NewWorkerPoolWith adopts caller-owned workers and transport (e.g. a TCP
// fleet served by ServeWorkersTCP). The caller keeps teardown responsibility
// for the transport's far side; Close still closes the transport itself.
func NewWorkerPoolWith(workers []*ModelWorker, tr Transport) *WorkerPool {
	return &WorkerPool{workers: workers, transport: tr}
}

// SetFenceTimeout bounds how long Reset waits for the fleet to quiesce:
// when the fences are not all answered within d, Reset gives up and
// reports the smallest unaccounted-for device as a typed *ErrWorkerLost
// instead of hanging on a dead or wedged worker. Zero (the default)
// restores the unbounded wait.
func (wp *WorkerPool) SetFenceTimeout(d time.Duration) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	wp.fenceTimeout = d
}

// fenceID maps a worker to a reserved negative request ID, so fence replies
// can never collide with the master's node IDs (>= 0).
func fenceID(gpu int) int { return -1 - gpu }

// fenceGPU inverts fenceID.
func fenceGPU(id int) int { return -id - 1 }

// Reset quiesces and reinitializes the fleet for the next iteration:
//
//  1. a fence is sent down every worker's queue and its reply awaited —
//     per-worker FIFO order plus the reply channel's own FIFO guarantee that
//     once all fences are back, every straggler reply from a previous
//     (possibly cancelled) run has been received and discarded;
//  2. each worker's peak-memory ledger is zeroed and its resting memory
//     replaced by static[i].
//
// static must have one entry per worker (estimator.StaticPerGPU of the next
// plan, or Program.StaticPerGPU of its compiled form).
func (wp *WorkerPool) Reset(static []int64) error {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return fmt.Errorf("runtime: worker pool closed")
	}
	if len(static) != len(wp.workers) {
		return fmt.Errorf("runtime: Reset with %d static entries for %d workers", len(static), len(wp.workers))
	}
	if err := wp.drainLocked(); err != nil {
		return err
	}
	for i, w := range wp.workers {
		w.Reset(static[i])
	}
	return nil
}

// drainLocked runs the fence protocol over the pool's transport. A dead
// worker surfaces here in one of two ways, both as a typed *ErrWorkerLost
// in the returned chain: the fence send itself fails (a killed transport
// lane), or the fences stop coming back and the fence timeout expires (a
// wedged or silently dropped worker).
func (wp *WorkerPool) drainLocked() error {
	n := len(wp.workers)
	if cap(wp.fenced) < n {
		wp.fenced = make([]bool, n)
	}
	fenced := wp.fenced[:n]
	clear(fenced)
	for gpu := range wp.workers {
		if err := wp.transport.Send(gpu, Request{ID: fenceID(gpu), Kind: ReqFence}); err != nil {
			return fmt.Errorf("runtime: fence gpu %d: %w", gpu, err)
		}
	}
	var timeout <-chan time.Time
	if wp.fenceTimeout > 0 {
		timer := time.NewTimer(wp.fenceTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	replies := wp.transport.Replies()
	for outstanding := n; outstanding > 0; {
		var (
			rep Reply
			ok  bool
		)
		// Drain, then block, as the dispatch loop does: a queued reply is
		// taken without entering the select on the fence timeout.
		select {
		case rep, ok = <-replies:
		default:
			select {
			case rep, ok = <-replies:
			case <-timeout:
				// Deterministic blame: the smallest device with an
				// outstanding fence.
				lost := -1
				for gpu, ok := range fenced {
					if !ok {
						lost = gpu
						break
					}
				}
				return fmt.Errorf("runtime: fence timeout after %v with %d fences outstanding: %w",
					wp.fenceTimeout, outstanding, &ErrWorkerLost{GPU: lost})
			}
		}
		if !ok {
			return fmt.Errorf("runtime: transport closed with %d fences outstanding", outstanding)
		}
		// Node IDs (>= 0) are stragglers of an earlier run; discard.
		if gpu := fenceGPU(rep.ID); rep.ID < 0 && gpu < n && !fenced[gpu] {
			fenced[gpu] = true
			outstanding--
		}
	}
	return nil
}

// Run executes one plan over the pool's persistent workers and transport:
// Compile plus Execute. The caller is responsible for Reset between
// iterations (and for setting the static footprints the plan implies); Run
// itself never rebuilds or resets the fleet, which is the point of the
// pool.
func (wp *WorkerPool) Run(p *core.Plan, opts Options) (*Report, error) {
	prog, err := Compile(p, opts)
	if err != nil {
		return nil, err
	}
	return wp.Execute(prog, opts)
}

// Execute runs a compiled program over the pool's workers and transport —
// the steady-state path of a session that re-executes one plan: no
// recompilation, only dispatch. Of opts, Context and WorkerTimeout apply;
// UseCUDAGraph and OverlapComm were fixed by Compile and must match it.
// Like Run, it expects a prior Reset to prog.StaticPerGPU().
func (wp *WorkerPool) Execute(prog *Program, opts Options) (*Report, error) {
	if opts.UseCUDAGraph != prog.cudaGraph || opts.OverlapComm != prog.overlap {
		return nil, fmt.Errorf("runtime: program compiled with UseCUDAGraph=%t OverlapComm=%t executed under UseCUDAGraph=%t OverlapComm=%t",
			prog.cudaGraph, prog.overlap, opts.UseCUDAGraph, opts.OverlapComm)
	}
	wp.mu.Lock()
	if wp.closed {
		wp.mu.Unlock()
		return nil, fmt.Errorf("runtime: worker pool closed")
	}
	transport, workers := wp.transport, wp.workers
	wp.mu.Unlock()
	// The worker ledgers account peak memory and OOM, so a fleet adopted
	// through NewWorkerPoolWith must bring one worker per device.
	if len(workers) != len(prog.static) {
		return nil, fmt.Errorf("runtime: program for %d devices on a pool of %d workers", len(prog.static), len(workers))
	}
	return prog.execute(opts, transport, workers)
}

// Close tears the pool down. Idempotent.
func (wp *WorkerPool) Close() error {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return nil
	}
	wp.closed = true
	return wp.transport.Close()
}
