package runtime

import (
	"context"
	"fmt"
	"slices"
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
	mu        sync.Mutex
	workers   []*ModelWorker
	transport Transport
	timeout   time.Duration
	closed    bool
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

// SetWorkerTimeout bounds every reply wait of the pool's fence drains
// (Reset) and runs (Run, Execute): a wait that sees no reply for d gives up
// with an error chaining a typed *ErrWorkerLost that names the smallest
// device still owing one — a run also returns its partial report — instead
// of hanging on a dead or wedged worker. The bound is per wait, so a slow
// but live fleet is never declared lost, however long a Reset or run takes.
// Zero (the default) waits without bound.
func (wp *WorkerPool) SetWorkerTimeout(d time.Duration) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	wp.timeout = d
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
// On the in-process ChanTransport every fence is answered inside its send
// and no straggler can exist (the master folded each reply where its
// dispatch returned), so Reset neither reads the reply channel nor arms a
// liveness timer. Every other transport runs the full protocol.
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
// lane), or no reply comes within the worker timeout (a wedged or silently
// dropped worker), which blames the smallest device with a fence
// outstanding.
func (wp *WorkerPool) drainLocked() error {
	n := len(wp.workers)
	if cap(wp.fenced) < n {
		wp.fenced = make([]bool, n)
	}
	fenced := wp.fenced[:n]
	clear(fenced)
	outstanding := n
	// fold takes one reply in; node IDs (>= 0) are stragglers of an
	// earlier run and are discarded.
	fold := func(rep Reply) {
		if gpu := fenceGPU(rep.ID); rep.ID < 0 && gpu < n && !fenced[gpu] {
			fenced[gpu] = true
			outstanding--
		}
	}
	inCall, _ := wp.transport.(*ChanTransport)
	for gpu := range wp.workers {
		req := Request{ID: fenceID(gpu), Kind: ReqFence}
		if inCall != nil {
			rep, err := inCall.call(gpu, req)
			if err != nil {
				return fmt.Errorf("runtime: fence gpu %d: %w", gpu, err)
			}
			fold(rep)
			continue
		}
		if err := wp.transport.Send(gpu, req); err != nil {
			return fmt.Errorf("runtime: fence gpu %d: %w", gpu, err)
		}
	}
	live := livenessTimer{timeout: wp.timeout}
	replies := wp.transport.Replies()
	for outstanding > 0 {
		select {
		case <-live.wait():
			return fmt.Errorf("runtime: no fence reply within %v with %d fences outstanding: %w",
				wp.timeout, outstanding, &ErrWorkerLost{GPU: slices.Index(fenced, false)})
		case rep, ok := <-replies:
			if !ok {
				return fmt.Errorf("runtime: transport closed with %d fences outstanding", outstanding)
			}
			fold(rep)
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
	return wp.Execute(opts.Context, prog)
}

// Execute runs a compiled program over the pool's workers and transport —
// the steady-state path of a session that re-executes one plan: no
// recompilation, only dispatch, under the options Compile fixed. ctx
// cancels an in-flight run as Options.Context does (nil never cancels).
// Like Run, it expects a prior Reset to prog.StaticPerGPU().
func (wp *WorkerPool) Execute(ctx context.Context, prog *Program) (*Report, error) {
	wp.mu.Lock()
	if wp.closed {
		wp.mu.Unlock()
		return nil, fmt.Errorf("runtime: worker pool closed")
	}
	transport, workers, timeout := wp.transport, wp.workers, wp.timeout
	wp.mu.Unlock()
	// The worker ledgers account peak memory and OOM, so a fleet adopted
	// through NewWorkerPoolWith must bring one worker per device.
	if len(workers) != len(prog.static) {
		return nil, fmt.Errorf("runtime: program for %d devices on a pool of %d workers", len(prog.static), len(workers))
	}
	return prog.execute(ctx, transport, workers, timeout)
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
