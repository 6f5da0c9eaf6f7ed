package runtime

import (
	"fmt"
	"sync/atomic"
)

// ModelWorker simulates one GPU's worker process: it executes requests in
// arrival order and enforces the device memory limit. It keeps no clock —
// the virtual span of every node was fixed when the program was compiled —
// so the order in which requests reach it changes nothing it reports.
//
// Handle is safe for concurrent use and takes no lock: the ledger is two
// atomics, the resting memory (set only by Reset) and the peak (raised by a
// compare-and-swap max). Concurrent senders on the in-process transport, or
// a TCP worker loop, handle requests while the master reads Peak; Reset
// clears the ledger between runs, once the worker is quiet.
type ModelWorker struct {
	GPU int
	// MemoryBytes is the device capacity.
	MemoryBytes int64

	// staticBytes is the resting memory of models homed on this GPU.
	staticBytes atomic.Int64
	// peakBytes tracks the high-water mark for reporting.
	peakBytes atomic.Int64
}

// NewModelWorker builds a worker for one device, with no resting memory
// until its first Reset.
func NewModelWorker(gpu int, memoryBytes int64) *ModelWorker {
	return &ModelWorker{GPU: gpu, MemoryBytes: memoryBytes}
}

// Peak returns the observed memory high-water mark.
func (w *ModelWorker) Peak() int64 { return w.peakBytes.Load() }

// Reset returns the worker to its initial state for the next iteration of a
// long-lived session: the memory high-water mark goes back to zero and the
// resting memory is replaced (the plan — and with it each device's static
// footprint — may have changed between iterations). It is the only setter
// of the resting memory. Callers must quiesce the worker first
// (WorkerPool.Reset fences every worker); resetting with requests in flight
// would fold old allocations into the new iteration.
func (w *ModelWorker) Reset(staticBytes int64) {
	w.staticBytes.Store(staticBytes)
	w.peakBytes.Store(0)
}

// Handle executes one request against the simulated device and returns the
// reply the worker would send: the request's static plus transient memory
// raises the peak and is checked against the device. Shutdown and fence
// requests return a marker Reply without touching the memory ledger.
func (w *ModelWorker) Handle(req Request) Reply {
	if req.Kind == ReqShutdown || req.Kind == ReqFence {
		return Reply{ID: req.ID, GPU: w.GPU}
	}
	static := w.staticBytes.Load()
	need := static + req.AllocBytes
	for peak := w.peakBytes.Load(); need > peak && !w.peakBytes.CompareAndSwap(peak, need); {
		peak = w.peakBytes.Load()
	}
	if need > w.MemoryBytes {
		return Reply{
			ID: req.ID, GPU: w.GPU, OOM: true,
			Error: fmt.Sprintf("gpu %d: CUDA out of memory: %d + %d > %d",
				w.GPU, static, req.AllocBytes, w.MemoryBytes),
		}
	}
	return Reply{ID: req.ID, GPU: w.GPU}
}
