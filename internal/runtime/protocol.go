// Package runtime implements the paper's runtime engine (§6): a centralized
// master worker that resolves the dependencies of the augmented dataflow
// graph and dispatches requests to per-GPU model workers, which execute them
// and reply with completion information. Requests carry no tensor data —
// data stays resident on worker GPUs and the master only communicates
// locations, exactly as in the paper.
//
// Since no physical GPUs exist here (DESIGN.md §2), virtual time is compiled,
// not simulated twice: Compile takes every node's duration and virtual
// start/end from the estimator's Algorithm 1 timeline of the plan under
// oracle costs, and workers execute against a simulated device that keeps
// only a memory ledger. Everything else — the event-driven dependency
// engine, the dispatch protocol, the per-GPU queues, fences, liveness
// timeouts and fault injection — runs for real, over either in-process
// channels or TCP sockets with gob encoding.
//
// Each worker exposes two streams, mirroring a CUDA device's compute and
// copy engines: model function calls occupy StreamCompute; parameter
// reallocation, data transfer and offload traffic occupy StreamComm. With
// Options.OverlapComm enabled the two lanes overlap in the compiled timeline,
// so reallocation latency hides behind computation (the paper's §6 overlap);
// with it disabled every node occupies StreamCompute, the fully serialized
// baseline schedule (the ±overlap ablation).
package runtime

// RequestKind classifies master->worker requests.
type RequestKind int

const (
	// ReqRunCall executes one model function call slice on the worker.
	ReqRunCall RequestKind = iota
	// ReqComm executes the worker's share of a parameter reallocation, data
	// transfer, or offload.
	ReqComm
	// ReqShutdown stops the worker loop.
	ReqShutdown
	// ReqFence is a synchronization marker: the worker answers it without
	// touching its memory ledger. Because every transport keeps
	// per-stream FIFO order, receiving a fence's reply proves every request
	// enqueued before it on that stream has been handled — the primitive
	// WorkerPool.Reset uses to quiesce workers between iterations.
	ReqFence
)

func (k RequestKind) String() string {
	switch k {
	case ReqRunCall:
		return "run"
	case ReqComm:
		return "comm"
	case ReqShutdown:
		return "shutdown"
	case ReqFence:
		return "fence"
	}
	return "unknown"
}

// Stream identifies one of a worker's execution lanes.
type Stream int

const (
	// StreamCompute runs model function calls (and, with overlap disabled,
	// everything else too).
	StreamCompute Stream = iota
	// StreamComm runs parameter-reallocation, data-transfer and offload
	// requests when Options.OverlapComm is set.
	StreamComm
	// NumStreams is the number of lanes per worker.
	NumStreams = 2
)

func (s Stream) String() string {
	switch s {
	case StreamCompute:
		return "compute"
	case StreamComm:
		return "comm"
	}
	return "stream?"
}

// Request is one master->worker message: the worker's share of one node. It
// carries no timing — the node's virtual span was fixed by Compile — only
// what the worker checks against its device, the node's transient memory.
type Request struct {
	ID     int
	Kind   RequestKind
	NodeID int
	// Stream is the worker lane the node occupies in the compiled timeline;
	// fences are addressed per (worker, stream).
	Stream Stream
	// Label is the augmented-graph node label (diagnostics).
	Label string
	// Handle is the local LLM handle the request addresses (e.g. "actor").
	Handle string
	// AllocBytes is the transient device memory the node needs while it
	// runs (activations, KV cache, logits, reallocated parameters).
	AllocBytes int64
}

// Reply is one worker->master message.
type Reply struct {
	ID    int
	GPU   int
	OOM   bool
	Error string
}

// Transport moves requests and replies between the master and workers.
type Transport interface {
	// Send enqueues a request on the given worker's stream FIFO queue.
	Send(gpu int, req Request) error
	// Replies yields worker replies in arrival order.
	Replies() <-chan Reply
	// Close tears the transport down.
	Close() error
}
