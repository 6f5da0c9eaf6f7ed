package runtime

import (
	"fmt"
	"sync"
)

// dispatchOverheadV is the virtual per-request master->worker dispatch
// latency (socket round trip plus queue polling). It is one of the runtime
// effects the lightweight estimator does not model, contributing to the
// estimated-vs-real gap of Fig. 12.
const dispatchOverheadV = 200e-6

// ModelWorker simulates one GPU's worker process: it executes requests in
// per-stream FIFO order, advancing one virtual clock per stream and
// enforcing the device memory limit. The two streams model a device's
// compute and copy engines: requests on different streams overlap in
// virtual time, requests on the same stream serialize.
//
// Handle is safe for concurrent use: a transport's executor handles requests
// while the master reads Peak and Reset clears the ledger between runs.
type ModelWorker struct {
	GPU int
	// MemoryBytes is the device capacity.
	MemoryBytes int64
	// StaticBytes is the resting memory of models homed on this GPU.
	StaticBytes int64

	mu     sync.Mutex
	clockV [NumStreams]float64
	// peakBytes tracks the high-water mark for reporting.
	peakBytes int64
}

// NewModelWorker builds a worker for one device.
func NewModelWorker(gpu int, memoryBytes int64) *ModelWorker {
	return &ModelWorker{GPU: gpu, MemoryBytes: memoryBytes}
}

// Clock returns the worker's current virtual time: the furthest-advanced
// stream clock.
func (w *ModelWorker) Clock() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.clockV[0]
	for _, v := range w.clockV[1:] {
		if v > c {
			c = v
		}
	}
	return c
}

// StreamClock returns one stream's virtual time.
func (w *ModelWorker) StreamClock(s Stream) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clockV[s]
}

// Peak returns the observed memory high-water mark.
func (w *ModelWorker) Peak() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peakBytes
}

// Reset returns the worker to its initial state for the next iteration of a
// long-lived session: stream clocks and the memory high-water mark go back
// to zero and the resting memory is replaced (the plan — and with it each
// device's static footprint — may have changed between iterations). Callers
// must quiesce the worker first (WorkerPool.Reset fences every stream);
// resetting with requests in flight would interleave old virtual times into
// the new iteration.
func (w *ModelWorker) Reset(staticBytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for s := range w.clockV {
		w.clockV[s] = 0
	}
	w.peakBytes = 0
	w.StaticBytes = staticBytes
}

// Handle executes one request against the simulated device and returns the
// reply the worker would send. Shutdown and fence requests return a marker
// Reply without advancing clocks or touching the memory ledger.
func (w *ModelWorker) Handle(req Request) Reply {
	if req.Kind == ReqShutdown || req.Kind == ReqFence {
		return Reply{ID: req.ID, GPU: w.GPU}
	}
	s := req.Stream
	if s < 0 || int(s) >= NumStreams {
		s = StreamCompute
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	start := req.ReadyV
	if w.clockV[s] > start {
		start = w.clockV[s]
	}
	start += dispatchOverheadV

	need := w.StaticBytes + req.AllocBytes
	if need > w.peakBytes {
		w.peakBytes = need
	}
	if need > w.MemoryBytes {
		w.clockV[s] = start
		return Reply{
			ID: req.ID, GPU: w.GPU, StartV: start, EndV: start, OOM: true,
			Error: fmt.Sprintf("gpu %d: CUDA out of memory: %d + %d > %d",
				w.GPU, w.StaticBytes, req.AllocBytes, w.MemoryBytes),
		}
	}
	end := start + req.DurV
	w.clockV[s] = end
	return Reply{ID: req.ID, GPU: w.GPU, StartV: start, EndV: end}
}
