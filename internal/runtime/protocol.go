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
// engine, the dispatch protocol, fences, liveness timeouts and fault
// injection — runs for real, over either the in-process ChanTransport or
// TCP sockets with gob encoding, one connection (one FIFO) per worker.
//
// The master runs one dispatch loop for every transport. A node whose
// parents are all complete goes on a ready list, and the loop empties that
// list before it reads any reply channel. On the in-process ChanTransport
// each worker answers inside the dispatch call, so its reply is folded in
// where the call returns, and a node it completes puts its unblocked
// children on the ready list: a steady step takes no channel operation,
// no worker lock and no timer. TCP, FaultyTransport and any other
// Transport reply asynchronously through Replies, on which the same loop
// waits, one reply at a time, each wait bounded by the pool's worker
// timeout.
//
// The compiled timeline gives each worker two streams, mirroring a CUDA
// device's compute and copy engines: model function calls occupy
// StreamCompute; parameter reallocation, data transfer and offload traffic
// occupy StreamComm. With Options.OverlapComm enabled the two lanes overlap,
// so reallocation latency hides behind computation (the paper's §6 overlap);
// with it disabled every node occupies StreamCompute, the fully serialized
// baseline schedule (the ±overlap ablation). Streams exist only in virtual
// time: a worker receives its requests over one FIFO.
package runtime

// RequestKind classifies master->worker requests.
type RequestKind int

const (
	// ReqNode executes the worker's share of one augmented-graph node: a
	// model function call slice, or a parameter reallocation, data transfer
	// or offload. The worker treats every node alike — it checks the node's
	// transient memory against its device.
	ReqNode RequestKind = iota
	// ReqShutdown stops the worker loop.
	ReqShutdown
	// ReqFence is a synchronization marker: the worker answers it without
	// touching its memory ledger. Because every transport keeps one FIFO
	// per worker, receiving a fence's reply proves every request enqueued
	// before it on that worker has been handled — the primitive
	// WorkerPool.Reset uses to quiesce workers between iterations.
	ReqFence
)

func (k RequestKind) String() string {
	switch k {
	case ReqNode:
		return "node"
	case ReqShutdown:
		return "shutdown"
	case ReqFence:
		return "fence"
	}
	return "unknown"
}

// Stream identifies one of a worker's execution lanes in the compiled
// timeline.
type Stream int

const (
	// StreamCompute runs model function calls (and, with overlap disabled,
	// everything else too).
	StreamCompute Stream = iota
	// StreamComm runs parameter-reallocation, data-transfer and offload
	// nodes when Options.OverlapComm is set.
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
	ID   int
	Kind RequestKind
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
//
// Its method set is the contract every fleet and every wrapper implements
// (TCPTransport, FaultyTransport, instrumenting wrappers outside this
// package), so it stays as it is. The in-process ChanTransport additionally
// answers inside the dispatch call through an unexported method that only
// this package's master uses; everything that implements just these three
// methods keeps the Send/Replies path.
type Transport interface {
	// Send enqueues a request on the given worker's FIFO queue.
	Send(gpu int, req Request) error
	// Replies yields worker replies in arrival order.
	Replies() <-chan Reply
	// Close tears the transport down.
	Close() error
}
