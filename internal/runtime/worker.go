package runtime

import (
	"fmt"
	"sync"
)

// ModelWorker simulates one GPU's worker process: it executes requests in
// arrival order and enforces the device memory limit. It keeps no clock —
// the virtual span of every node was fixed when the program was compiled —
// so the order in which requests reach it changes nothing it reports.
//
// Handle is safe for concurrent use: a transport's executor handles requests
// while the master reads Peak and Reset clears the ledger between runs.
type ModelWorker struct {
	GPU int
	// MemoryBytes is the device capacity.
	MemoryBytes int64
	// StaticBytes is the resting memory of models homed on this GPU.
	StaticBytes int64

	mu sync.Mutex
	// peakBytes tracks the high-water mark for reporting.
	peakBytes int64
}

// NewModelWorker builds a worker for one device.
func NewModelWorker(gpu int, memoryBytes int64) *ModelWorker {
	return &ModelWorker{GPU: gpu, MemoryBytes: memoryBytes}
}

// Peak returns the observed memory high-water mark.
func (w *ModelWorker) Peak() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peakBytes
}

// Reset returns the worker to its initial state for the next iteration of a
// long-lived session: the memory high-water mark goes back to zero and the
// resting memory is replaced (the plan — and with it each device's static
// footprint — may have changed between iterations). Callers must quiesce the
// worker first (WorkerPool.Reset fences every worker); resetting with
// requests in flight would fold old allocations into the new iteration.
func (w *ModelWorker) Reset(staticBytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peakBytes = 0
	w.StaticBytes = staticBytes
}

// Handle executes one request against the simulated device and returns the
// reply the worker would send. Shutdown and fence requests return a marker
// Reply without touching the memory ledger.
func (w *ModelWorker) Handle(req Request) Reply {
	if req.Kind == ReqShutdown || req.Kind == ReqFence {
		return Reply{ID: req.ID, GPU: w.GPU}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	need := w.StaticBytes + req.AllocBytes
	if need > w.peakBytes {
		w.peakBytes = need
	}
	if need > w.MemoryBytes {
		return Reply{
			ID: req.ID, GPU: w.GPU, OOM: true,
			Error: fmt.Sprintf("gpu %d: CUDA out of memory: %d + %d > %d",
				w.GPU, w.StaticBytes, req.AllocBytes, w.MemoryBytes),
		}
	}
	return Reply{ID: req.ID, GPU: w.GPU}
}
