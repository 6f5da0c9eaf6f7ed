package runtime

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// Options configures a run.
type Options struct {
	// UseCUDAGraph enables CUDA-graph capture for decoding kernels
	// (Table 6's ±CUDAGraph comparison). Default true.
	UseCUDAGraph bool
	// OverlapComm places parameter-reallocation, data-transfer and offload
	// nodes on each worker's communication stream, so they run concurrently
	// with model function calls on the compute stream (§6's overlapped
	// runtime). When false, every node shares the compute stream and the
	// schedule is fully serialized per device — the baseline side of the
	// ±overlap ablation.
	OverlapComm bool
	// Context, when set, cancels an in-flight run: Run returns the partial
	// report accumulated so far together with a wrapping error.
	Context context.Context
}

// NodeSpan is one executed node of the run timeline.
type NodeSpan struct {
	Label string
	Kind  core.Kind
	// Stream is the worker lane the node executed on.
	Stream Stream
	// Lane is the first GPU of the node's meshes — the track the Chrome
	// trace exporter places the span on.
	Lane   int
	StartV float64
	EndV   float64
}

// Report is the outcome of executing a plan on the simulated cluster.
type Report struct {
	// MakespanV is the virtual wall time of the whole (possibly
	// multi-iteration) run.
	MakespanV float64
	// Iterations is the number of RLHF iterations the graph spanned (the
	// configured count, whether or not the run finished them).
	Iterations int
	// CompletedIterations counts iterations whose every model function call
	// finished. It equals Iterations for a run that completed; a cancelled
	// run reports fewer, and IterTime divides by this count.
	CompletedIterations int
	// OverlapComm echoes the option the run executed under.
	OverlapComm bool
	// CallTimes maps call names to their iteration-0 virtual durations
	// (Table 6 rows).
	CallTimes map[string]float64
	// CommTimeV totals parameter reallocation + data transfer + offload
	// time across the run (independent of whether it was overlapped).
	CommTimeV float64
	// Timeline lists every executed node in the compiled schedule's order.
	Timeline []NodeSpan
	// OOM reports whether any worker ran out of memory; Errors carries the
	// worker messages (sorted for reproducibility).
	OOM    bool
	Errors []string
	// PeakBytes is the max observed memory over all workers.
	PeakBytes int64
}

// IterTime is the average virtual time per fully completed RLHF iteration.
// It divides by the iterations the run actually completed, clamped to the
// configured count — a partial report from a cancelled run is not averaged
// over work that never happened. When nothing completed (or on a hand-built
// report without iteration counts) it degrades to the raw makespan.
func (r *Report) IterTime() float64 {
	iters := r.Iterations
	if r.CompletedIterations < iters {
		iters = r.CompletedIterations
	}
	if iters <= 0 {
		return r.MakespanV
	}
	return r.MakespanV / float64(iters)
}

// Program is a plan compiled for execution: everything the centralized
// master of §6 knows before the first request goes out — the augmented
// graph, each node's devices, label, transient allocation and virtual span,
// and every device's static footprint. A Program is immutable once
// compiled, so one compile serves any number of executions (a training
// session re-executes its incumbent plan every iteration).
type Program struct {
	works []nodeWork // by node ID
	// order lists node IDs in the estimator's schedule order, the order the
	// report's timeline follows.
	order []int
	// static is estimator.StaticPerGPU of the plan: each device's resting
	// memory, what a fleet is Reset to before executing the program.
	static []int64
	// callsPerIter counts call nodes per RLHF iteration.
	callsPerIter []int
	// overlap is the OverlapComm option the program was compiled under,
	// which its reports echo.
	overlap bool
}

// nodeWork is the compiled knowledge about one augmented node.
type nodeWork struct {
	// node carries the dependency edges the dispatcher follows.
	node   *core.AugNode
	label  string
	stream Stream
	// gpus are the devices the node occupies (deduplicated, ascending).
	gpus  []int
	alloc int64
	// dur, startV and endV are the node's span in the estimator's timeline.
	dur, startV, endV float64
}

// Compile validates the plan and fixes its execution: every node, its
// duration and its virtual start and end come from one Estimator.Evaluate
// timeline — Algorithm 1 over oracle costs on the plan's own cluster
// (run-option scaling included), uncalibrated, under opts' UseCUDAGraph and
// OverlapComm. The runtime and the estimator therefore agree by
// construction; the estimated-vs-real gap of Fig. 12 comes only from the
// estimator's profiled tables and calibration. Of opts, only UseCUDAGraph
// and OverlapComm shape a compile; the rest matter to an execution.
func Compile(p *core.Plan, opts Options) (*Program, error) {
	est := estimator.NewOracle(p.Cluster, p.Models, opts.UseCUDAGraph)
	est.OverlapComm = opts.OverlapComm
	res, err := est.Evaluate(p)
	if err != nil {
		return nil, err
	}
	n := len(res.Timeline)
	prog := &Program{
		works:   make([]nodeWork, n),
		order:   make([]int, n),
		static:  estimator.StaticPerGPU(p),
		overlap: opts.OverlapComm,
	}
	// mark is a bitmap over the cluster's devices, reused across nodes to
	// deduplicate the GPUs of a node's (possibly overlapping) meshes.
	mark := make([]bool, p.Cluster.NumGPUs())
	for i, sn := range res.Timeline {
		nd := sn.Node
		w := nodeWork{
			node:   nd,
			label:  nd.Label(),
			stream: StreamCompute,
			gpus:   meshGPUs(mark, nd),
			dur:    sn.Duration,
			startV: sn.Start,
			endV:   sn.End,
		}
		if nd.Kind.CommLike() {
			if opts.OverlapComm {
				w.stream = StreamComm
			}
		} else {
			w.alloc = estimator.CallActiveBytes(p, nd.Call)
			for len(prog.callsPerIter) <= nd.Call.Iter {
				prog.callsPerIter = append(prog.callsPerIter, 0)
			}
			prog.callsPerIter[nd.Call.Iter]++
		}
		prog.works[nd.ID] = w
		prog.order[i] = nd.ID
	}
	return prog, nil
}

// meshGPUs lists the distinct devices of n's meshes in ascending order,
// using mark (all false on entry and on return) as scratch.
func meshGPUs(mark []bool, n *core.AugNode) []int {
	lo, hi, count := len(mark), 0, 0
	for _, ms := range n.Meshes {
		for gpu := ms.First; gpu < ms.First+ms.Count; gpu++ {
			if !mark[gpu] {
				mark[gpu] = true
				count++
			}
		}
		lo, hi = min(lo, ms.First), max(hi, ms.First+ms.Count)
	}
	gpus := make([]int, 0, count)
	for gpu := lo; gpu < hi; gpu++ {
		if mark[gpu] {
			gpus = append(gpus, gpu)
			mark[gpu] = false
		}
	}
	return gpus
}

// StaticPerGPU is each device's resting memory under the compiled plan —
// the footprint a fleet is Reset to before executing it. The slice is
// shared; callers must not modify it.
func (prog *Program) StaticPerGPU() []int64 { return prog.static }

// Run executes the plan once on a fresh in-process fleet: Compile plus one
// execution. Other fleets — a TCP deployment, a fault-injecting transport —
// run plans through a WorkerPool (NewWorkerPoolWith, Reset, Run).
func Run(p *core.Plan, opts Options) (*Report, error) {
	prog, err := Compile(p, opts)
	if err != nil {
		return nil, err
	}
	workers := make([]*ModelWorker, len(prog.static))
	for i := range workers {
		workers[i] = NewModelWorker(i, p.Cluster.GPU.MemoryBytes)
		workers[i].Reset(prog.static[i])
	}
	ct := NewChanTransport(workers)
	defer ct.Close()
	return prog.execute(opts.Context, ct, workers, 0)
}

// livenessTimer bounds each reply wait of one loop — a run's dispatch loop
// or a Reset's fence drain — by the pool's worker timeout. It is armed at
// the loop's first wait, so a loop that never waits (every in-call
// execution and fence drain) takes no timer, and re-armed at each later
// one: a wait that sees no reply for the timeout expires, however long the
// loop as a whole has run. Under go 1.23 timer semantics Timer.Reset needs
// no drain and an abandoned timer no Stop.
type livenessTimer struct {
	timeout time.Duration
	timer   *time.Timer
}

// wait arms the timer for one reply wait and returns its channel, which is
// nil (never ready) when there is no timeout.
func (l *livenessTimer) wait() <-chan time.Time {
	if l.timeout <= 0 {
		return nil
	}
	if l.timer == nil {
		l.timer = time.NewTimer(l.timeout)
	} else {
		l.timer.Reset(l.timeout)
	}
	return l.timer.C
}

// nodeRun is one node's dispatch state within one execution.
type nodeRun struct {
	pending     int // parents not yet complete
	outstanding int // replies still expected
	done        bool
}

// execute is the master's event-driven dispatch loop — the one path every
// execution takes, whether the program was just compiled (Run,
// WorkerPool.Run) or is re-executed by a long-lived session
// (WorkerPool.Execute), and whatever the transport. ctx cancels the run
// (nil never cancels); timeout bounds each reply wait (zero waits without
// bound).
//
// It is a plain dependency-driven dispatcher: a node whose parents' replies
// are all in goes on a ready list, and the loop dispatches every ready node
// before it reads a reply channel. A reply is folded in where it is
// returned: a ChanTransport fleet answers inside the dispatch call, so it
// never touches the channel; any other transport's replies are received
// from Replies. TCP workers run
// concurrently and reply in arbitrary physical order, so there the
// dispatch order varies from run to run — but nothing reported depends on
// it. Virtual spans were fixed by Compile, and the worker ledgers' peaks
// and OOM verdicts do not depend on request order; the report folds
// completed nodes in compiled order with sorted error lists.
func (prog *Program) execute(ctx context.Context, transport Transport, workers []*ModelWorker, timeout time.Duration) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	works := prog.works
	total := len(works)
	report := &Report{
		OverlapComm: prog.overlap,
		CallTimes:   map[string]float64{},
	}
	state := make([]nodeRun, total)
	// ready queues the nodes whose parents are all complete, in the order
	// they became ready; next is the first not yet dispatched. Each node is
	// queued once, so the queue never outgrows total.
	ready := make([]int, 0, total)
	for id := range works {
		if state[id].pending = len(works[id].node.Parents); state[id].pending == 0 {
			ready = append(ready, id)
		}
	}
	next := 0
	inCall, _ := transport.(*ChanTransport)
	inflight := 0 // dispatched, incomplete nodes
	completed := 0
	// owedByGPU counts each device's replies still due on Replies, which
	// names the lost device when a wait times out. An in-call reply is
	// never owed, so an in-call execution keeps no count.
	var owedByGPU []int
	if inCall == nil {
		owedByGPU = make([]int, len(prog.static))
	}

	// fold takes one reply in. A node's last reply completes it and queues
	// every child it unblocks.
	fold := func(rep Reply) {
		if rep.OOM {
			report.OOM = true
			report.Errors = append(report.Errors, rep.Error)
		}
		if rep.ID < 0 || rep.ID >= total {
			return // a straggler fence: no node of this program
		}
		if rep.GPU >= 0 && rep.GPU < len(owedByGPU) {
			owedByGPU[rep.GPU]--
		}
		st := &state[rep.ID]
		if st.outstanding--; st.outstanding > 0 {
			return
		}
		st.done = true
		completed++
		inflight--
		for _, c := range works[rep.ID].node.Children {
			if state[c].pending--; state[c].pending == 0 {
				ready = append(ready, c)
			}
		}
	}

	// dispatch sends a node to each of its devices. In-call replies are
	// folded as the calls return, so there the node completes, and its
	// unblocked children are queued, before dispatch returns.
	dispatch := func(id int) error {
		w := &works[id]
		state[id].outstanding = len(w.gpus)
		inflight++
		req := Request{ID: id, Kind: ReqNode, AllocBytes: w.alloc}
		for _, gpu := range w.gpus {
			if inCall != nil {
				rep, err := inCall.call(gpu, req)
				if err != nil {
					return fmt.Errorf("runtime: dispatch %q to gpu %d: %w", w.label, gpu, err)
				}
				fold(rep)
				continue
			}
			if err := transport.Send(gpu, req); err != nil {
				return fmt.Errorf("runtime: dispatch %q to gpu %d: %w", w.label, gpu, err)
			}
			owedByGPU[gpu]++
		}
		return nil
	}

	// finish assembles the deterministic report from the compiled spans of
	// the nodes that completed, independent of reply arrival order.
	finish := func() {
		// Iteration accounting distinguishes the configured span (every call
		// node, done or not) from what actually completed: an iteration
		// counts as completed only when all of its calls finished, so a
		// cancelled run's IterTime is never averaged over phantom work.
		// CommTimeV sums in node-ID order, which the pinned goldens' comm=
		// values depend on.
		donePerIter := make([]int, len(prog.callsPerIter))
		for id := range works {
			if !state[id].done {
				continue
			}
			w := &works[id]
			n := w.node
			report.MakespanV = max(report.MakespanV, w.endV)
			switch n.Kind {
			case core.KindCall:
				donePerIter[n.Call.Iter]++
				if n.Call.Iter == 0 {
					report.CallTimes[n.Call.Name] = w.dur
				}
			default:
				report.CommTimeV += w.dur
			}
		}
		if completed > 0 {
			report.Timeline = make([]NodeSpan, 0, completed)
		}
		for _, id := range prog.order {
			if !state[id].done {
				continue
			}
			w := &works[id]
			report.Timeline = append(report.Timeline, NodeSpan{
				Label: w.label, Kind: w.node.Kind, Stream: w.stream,
				Lane: w.gpus[0], StartV: w.startV, EndV: w.endV,
			})
		}
		report.Iterations = len(prog.callsPerIter)
		for it, calls := range prog.callsPerIter {
			if donePerIter[it] == calls {
				report.CompletedIterations++
			}
		}
		for _, w := range workers {
			if w != nil && w.Peak() > report.PeakBytes {
				report.PeakBytes = w.Peak()
			}
		}
		sort.Strings(report.Errors)
	}

	// A run that dies mid-flight — lost worker, closed transport, stalled
	// scheduler — still returns the partial report assembled from every
	// node that did complete, exactly like a context cancellation: the
	// caller's accounting (CompletedIterations, IterTime's partial-run
	// clamp) must not depend on *why* the run ended early.
	cancelled := func() (*Report, error) {
		finish()
		return report, fmt.Errorf("runtime: run cancelled with %d/%d nodes complete: %w",
			completed, total, ctx.Err())
	}
	live := livenessTimer{timeout: timeout}
	replies := transport.Replies()
	for completed < total {
		if next < len(ready) {
			// A dispatch never blocks, and on an in-call fleet it is all
			// the loop does, so the context is checked once per dispatched
			// node here.
			if ctx.Err() != nil {
				return cancelled()
			}
			id := ready[next]
			next++
			if err := dispatch(id); err != nil {
				finish()
				return report, err
			}
			continue
		}
		// Nothing is ready, so only a node in flight can make progress.
		if inflight == 0 {
			finish()
			return report, fmt.Errorf("runtime: scheduler stalled with %d/%d nodes complete", completed, total)
		}
		select {
		case <-ctx.Done():
			return cancelled()
		case <-live.wait():
			finish()
			lost := slices.IndexFunc(owedByGPU, func(owed int) bool { return owed > 0 })
			return report, fmt.Errorf("runtime: no worker reply within %v with %d/%d nodes complete: %w",
				timeout, completed, total, &ErrWorkerLost{GPU: lost})
		case rep, ok := <-replies:
			// A select picks at random among ready cases, so a fleet that
			// always has a reply queued could keep ctx.Done waiting: each
			// received reply checks the context itself.
			if ctx.Err() != nil {
				return cancelled()
			}
			if !ok {
				finish()
				return report, fmt.Errorf("runtime: transport closed with %d nodes in flight", inflight)
			}
			fold(rep)
		}
	}
	finish()
	return report, nil
}
