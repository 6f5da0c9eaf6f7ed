package runtime

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/realloc"
)

// Options configures a run.
type Options struct {
	// UseCUDAGraph enables CUDA-graph capture for decoding kernels
	// (Table 6's ±CUDAGraph comparison). Default true.
	UseCUDAGraph bool
	// OverlapComm routes parameter-reallocation, data-transfer and offload
	// nodes to each worker's communication stream, so they execute
	// concurrently with model function calls on the compute stream (§6's
	// overlapped runtime). When false, every node shares the compute stream
	// and the schedule is fully serialized per device — the baseline side of
	// the ±overlap ablation.
	OverlapComm bool
	// Context, when set, cancels an in-flight run: Run returns the partial
	// report accumulated so far together with a wrapping error.
	Context context.Context
	// WorkerTimeout bounds how long the dispatch loop waits for the next
	// worker reply while nodes are in flight. When a wait outlasts it
	// (detected within a quarter of it more), the run is
	// abandoned with a partial report and an error chaining a typed
	// *ErrWorkerLost naming the smallest device that still owes a reply —
	// the failure-detection half of the resilience contract (a dead worker
	// must surface as a typed error, never as a hang). Zero disables the
	// timeout (the historical behavior).
	WorkerTimeout time.Duration
	// Transport overrides the default in-process transport. When set, the
	// caller owns worker setup and teardown; StaticBytes must already be
	// populated on the workers, and Workers must be provided for memory
	// reporting.
	Transport Transport
	// Workers must accompany a custom Transport (for peak reporting).
	Workers []*ModelWorker
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
	// CallBreakdowns carries the kernel-category split per call (Fig. 11).
	CallBreakdowns map[string]gpumodel.Breakdown
	// CommTimeV totals parameter reallocation + data transfer + offload
	// time across the run (independent of whether it was overlapped).
	CommTimeV float64
	// Timeline lists every executed node.
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
// graph, each node's devices, per-device virtual durations, label and
// transient allocation, and every device's static footprint. A Program is
// immutable once compiled, so one compile serves any number of executions
// (a training session re-executes its incumbent plan every iteration).
type Program struct {
	graph *core.AugGraph
	works []nodeWork
	// static is estimator.StaticPerGPU of the plan: each device's resting
	// memory, what a fleet is Reset to before executing the program.
	static []int64
	// callsPerIter counts call nodes per RLHF iteration.
	callsPerIter []int

	cudaGraph, overlap bool
}

// nodeWork is the compiled knowledge about one augmented node.
type nodeWork struct {
	label  string
	handle string
	kind   RequestKind // ReqComm exactly for comm-like nodes
	stream Stream
	// gpus are the devices the node occupies (deduplicated, ascending).
	gpus []int
	// durs gives each of gpus' busy time; nil means uniform `dur`.
	durs  []float64
	dur   float64
	alloc int64
	// breakdown is set for call nodes.
	breakdown gpumodel.Breakdown
}

// Compile validates the plan, expands it into the augmented graph and
// prices every node for execution. Of opts, only UseCUDAGraph and
// OverlapComm shape a compile; the rest matter to an execution.
func Compile(p *core.Plan, opts Options) (*Program, error) {
	g, err := p.BuildAugGraph()
	if err != nil {
		return nil, err
	}
	oracles := map[dfg.Role]*gpumodel.Oracle{}
	for role, ms := range p.Models {
		o := gpumodel.NewOracle(p.Cluster, ms.Cfg)
		o.UseCUDAGraph = opts.UseCUDAGraph
		oracles[role] = o
	}
	comm := gpumodel.Comm{HW: p.Cluster}
	prog := &Program{
		graph:     g,
		works:     make([]nodeWork, len(g.Nodes)),
		static:    estimator.StaticPerGPU(p),
		cudaGraph: opts.UseCUDAGraph,
		overlap:   opts.OverlapComm,
	}
	var cs realloc.CostScratch
	// mark is a bitmap over the cluster's devices, reused across nodes to
	// deduplicate the GPUs of a node's (possibly overlapping) meshes.
	mark := make([]bool, p.Cluster.NumGPUs())
	for _, n := range g.Nodes {
		w := nodeWork{
			label:  n.Label(),
			handle: string(n.Role),
			kind:   ReqRunCall,
			stream: StreamCompute,
			gpus:   meshGPUs(mark, n),
		}
		if n.Kind.CommLike() {
			w.kind = ReqComm
			if opts.OverlapComm {
				w.stream = StreamComm
			}
		}
		switch n.Kind {
		case core.KindCall:
			spec, err := estimator.CallSpecOf(p, n.Call)
			if err != nil {
				return nil, err
			}
			oracle, ok := oracles[n.Call.Role]
			if !ok {
				return nil, fmt.Errorf("runtime: no oracle for role %q", n.Call.Role)
			}
			w.breakdown = gpumodel.AssembleCall(oracle, comm, spec)
			w.dur = w.breakdown.Total()
			w.alloc = estimator.CallActiveBytes(p, n.Call)
			for len(prog.callsPerIter) <= n.Call.Iter {
				prog.callsPerIter = append(prog.callsPerIter, 0)
			}
			prog.callsPerIter[n.Call.Iter]++
		case core.KindParamRealloc:
			ms := p.Models[n.Role]
			w.setBusy(realloc.ParamsBusy(&cs, ms.Cfg.NumLayers, ms.Cfg.LayerParamBytes(), n.Src, n.Dst, p.Cluster))
		case core.KindDataTransfer:
			w.setBusy(realloc.DataBusy(&cs, n.Bytes, n.Src, n.Dst, p.Cluster))
		case core.KindOffload:
			perGPU := n.Bytes / int64(n.Dst.Mesh.NumGPUs())
			w.dur = comm.OffloadTransfer(perGPU)
		}
		prog.works[n.ID] = w
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

// setBusy charges the node's devices their share of a transfer's per-GPU
// busy time (indexed by global GPU); the node completes with its busiest
// device.
func (w *nodeWork) setBusy(busy []float64) {
	w.durs = make([]float64, len(w.gpus))
	for i, gpu := range w.gpus {
		w.durs[i] = busy[gpu]
		w.dur = max(w.dur, busy[gpu])
	}
}

// StaticPerGPU is each device's resting memory under the compiled plan —
// the footprint a fleet is Reset to before executing it. The slice is
// shared; callers must not modify it.
func (prog *Program) StaticPerGPU() []int64 { return prog.static }

// Run executes the plan on a fresh in-process fleet (or over the caller's
// Options.Transport): Compile plus one execution.
func Run(p *core.Plan, opts Options) (*Report, error) {
	if opts.Transport != nil && len(opts.Workers) == 0 {
		return nil, fmt.Errorf("runtime: custom Transport requires Options.Workers (memory accounting needs the worker set)")
	}
	prog, err := Compile(p, opts)
	if err != nil {
		return nil, err
	}
	transport, workers := opts.Transport, opts.Workers
	if transport == nil {
		workers = make([]*ModelWorker, len(prog.static))
		for i := range workers {
			workers[i] = NewModelWorker(i, p.Cluster.GPU.MemoryBytes)
			workers[i].StaticBytes = prog.static[i]
		}
		ct := NewChanTransport(workers)
		defer ct.Close()
		transport = ct
	}
	return prog.execute(opts, transport, workers)
}

// readyItem orders the master's dispatch queue by (ready time, comm-first,
// node ID) — a total, deterministic order. Communication nodes win ready
// ties: a transfer is cheap and unblocks a remote mesh, so queueing it
// behind an equally-ready long call on its source mesh would stall the
// destination pipeline for the call's whole duration (the estimator's
// schedule and the paper's engine both let transfers slip in first).
type readyItem struct {
	ready float64
	comm  bool
	id    int
}

type readyHeap []readyItem

func (q readyHeap) Len() int { return len(q) }
func (q readyHeap) Less(i, j int) bool {
	if q[i].ready != q[j].ready {
		return q[i].ready < q[j].ready
	}
	if q[i].comm != q[j].comm {
		return q[i].comm
	}
	return q[i].id < q[j].id
}
func (q readyHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyHeap) Push(x any)   { *q = append(*q, x.(readyItem)) }
func (q *readyHeap) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// livenessTicks is how many timer ticks make up one WorkerTimeout: a lost
// worker is detected between WorkerTimeout and WorkerTimeout plus one tick
// after the master began waiting on it.
const livenessTicks = 4

// nodeRun is one node's dispatch state within one execution.
type nodeRun struct {
	pending     int     // outstanding parent count
	outstanding int     // replies still expected
	readyV      float64 // max end time over completed parents
	startV      float64 // min start over the node's replies
	endV        float64 // max end over the node's replies
	done        bool
}

// execute is the master's event-driven dispatch loop — the one path every
// execution takes, whether the program was just compiled (Run,
// WorkerPool.Run) or is re-executed by a long-lived session
// (WorkerPool.Execute). Of opts, only Context and WorkerTimeout are read.
//
// Determinism: workers run concurrently, and replies arrive in arbitrary
// physical order, but the virtual timeline they produce is a pure function
// of the per-(worker, stream) request order — which the master keeps
// deterministic with a conservative gate. A ready node (all parents
// complete) is dispatched only when its ready time is strictly below every
// in-flight node's earliest possible completion (readyV + dispatch
// overhead): since any future node's ready time is at least that bound, the
// global dispatch sequence is exactly the (ready time, node ID)-sorted
// order, independent of goroutine scheduling and reply arrival order.
func (prog *Program) execute(opts Options, transport Transport, workers []*ModelWorker) (*Report, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	nodes := prog.graph.Nodes
	total := len(nodes)
	report := &Report{
		OverlapComm:    prog.overlap,
		CallTimes:      map[string]float64{},
		CallBreakdowns: map[string]gpumodel.Breakdown{},
	}
	state := make([]nodeRun, total)
	ready := make(readyHeap, 0, total)
	for i, n := range nodes {
		state[i] = nodeRun{pending: len(n.Parents), startV: math.MaxFloat64}
		if len(n.Parents) == 0 {
			heap.Push(&ready, readyItem{ready: 0, comm: prog.works[i].kind == ReqComm, id: i})
		}
	}
	// inflight lists the dispatched, incomplete nodes; the dispatch gate is
	// the earliest virtual time any of them can complete.
	var inflight []int
	owedByGPU := make([]int, len(prog.static)) // replies each device still owes
	replies := transport.Replies()

	minInflightBound := func() (float64, bool) {
		if len(inflight) == 0 {
			return 0, false
		}
		bound := math.MaxFloat64
		for _, id := range inflight {
			bound = min(bound, state[id].readyV+dispatchOverheadV)
		}
		return bound, true
	}

	dispatch := func(id int) error {
		w := &prog.works[id]
		st := &state[id]
		for i, gpu := range w.gpus {
			dur := w.dur
			if w.durs != nil {
				dur = w.durs[i]
			}
			req := Request{
				ID: id, Kind: w.kind, NodeID: id, Stream: w.stream,
				Label: w.label, Handle: w.handle,
				ReadyV: st.readyV, DurV: dur, AllocBytes: w.alloc,
			}
			if err := transport.Send(gpu, req); err != nil {
				return fmt.Errorf("runtime: dispatch %q to gpu %d: %w", w.label, gpu, err)
			}
			owedByGPU[gpu]++
		}
		st.outstanding = len(w.gpus)
		inflight = append(inflight, id)
		return nil
	}

	completed := 0
	handleReply := func(rep Reply) {
		if rep.OOM {
			report.OOM = true
			report.Errors = append(report.Errors, rep.Error)
		}
		if rep.ID < 0 || rep.ID >= total {
			return // a straggler fence: no node of this program
		}
		st := &state[rep.ID]
		st.endV = max(st.endV, rep.EndV)
		st.startV = min(st.startV, rep.StartV)
		if rep.GPU >= 0 && rep.GPU < len(owedByGPU) {
			owedByGPU[rep.GPU]--
		}
		st.outstanding--
		if st.outstanding > 0 {
			return
		}
		// Node complete: release the gate and unlock children.
		st.done = true
		completed++
		for i, id := range inflight {
			if id == rep.ID {
				inflight[i] = inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
				break
			}
		}
		for _, c := range nodes[rep.ID].Children {
			cs := &state[c]
			cs.readyV = max(cs.readyV, st.endV)
			cs.pending--
			if cs.pending == 0 {
				heap.Push(&ready, readyItem{ready: cs.readyV, comm: prog.works[c].kind == ReqComm, id: c})
			}
		}
	}

	// finish assembles the deterministic report from per-node results,
	// independent of reply arrival order: nodes are folded in ID order and
	// the error list is sorted.
	finish := func() {
		// Iteration accounting distinguishes the configured span (every call
		// node, done or not) from what actually completed: an iteration
		// counts as completed only when all of its calls finished, so a
		// cancelled run's IterTime is never averaged over phantom work.
		donePerIter := make([]int, len(prog.callsPerIter))
		if completed > 0 {
			report.Timeline = make([]NodeSpan, 0, completed)
		}
		for _, n := range nodes {
			st := &state[n.ID]
			if !st.done {
				continue
			}
			w := &prog.works[n.ID]
			report.Timeline = append(report.Timeline, NodeSpan{
				Label: w.label, Kind: n.Kind, Stream: w.stream,
				Lane: w.gpus[0], StartV: st.startV, EndV: st.endV,
			})
			report.MakespanV = max(report.MakespanV, st.endV)
			switch n.Kind {
			case core.KindCall:
				donePerIter[n.Call.Iter]++
				if n.Call.Iter == 0 {
					report.CallTimes[n.Call.Name] = w.dur
					report.CallBreakdowns[n.Call.Name] = w.breakdown
				}
			default:
				report.CommTimeV += w.dur
			}
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
		sort.SliceStable(report.Timeline, func(i, j int) bool {
			return report.Timeline[i].StartV < report.Timeline[j].StartV
		})
	}

	// A run that dies mid-flight — lost worker, closed transport, stalled
	// scheduler — still returns the partial report assembled from every
	// node that did complete, exactly like a context cancellation: the
	// caller's accounting (CompletedIterations, IterTime's partial-run
	// clamp) must not depend on *why* the run ended early.
	var (
		timer    *time.Timer
		timeoutC <-chan time.Time
		tick     = opts.WorkerTimeout / livenessTicks
		// waits numbers the blocking waits; tickedWait is the wait the last
		// tick landed in, and quietTicks counts the ticks since then.
		waits, tickedWait, quietTicks int
	)
	if opts.WorkerTimeout > 0 {
		timer = time.NewTimer(tick)
		defer timer.Stop()
		timeoutC = timer.C
	}
	for completed < total {
		// Dispatch every node the gate admits, draining replies
		// opportunistically so queues never back up. Handling a reply
		// early never changes the dispatch sequence — the gate already
		// forbids any pop the extra knowledge could reorder.
		for ready.Len() > 0 {
			if bound, ok := minInflightBound(); ok && ready[0].ready >= bound {
				break
			}
			it := heap.Pop(&ready).(readyItem)
			if err := dispatch(it.id); err != nil {
				finish()
				return report, err
			}
			for drained := false; !drained; {
				select {
				case rep, ok := <-replies:
					if !ok {
						finish()
						return report, fmt.Errorf("runtime: transport closed with %d nodes in flight", len(inflight))
					}
					handleReply(rep)
				default:
					drained = true
				}
			}
		}
		if completed == total {
			break
		}
		if len(inflight) == 0 {
			finish()
			return report, fmt.Errorf("runtime: scheduler stalled with %d/%d nodes complete", completed, total)
		}
		// Block for the next reply. The liveness timer ticks every
		// WorkerTimeout/livenessTicks and is never re-armed per wait (that
		// would cost a clock read per reply): a wait that spans
		// livenessTicks+1 ticks has lasted at least WorkerTimeout with
		// replies owed, and is caught within one tick of that.
		waits++
	wait:
		for {
			select {
			case <-ctx.Done():
				finish()
				return report, fmt.Errorf("runtime: run cancelled with %d/%d nodes complete: %w",
					completed, total, ctx.Err())
			case <-timeoutC:
				if waits != tickedWait {
					tickedWait, quietTicks = waits, 0
				} else {
					quietTicks++
				}
				if quietTicks < livenessTicks {
					timer.Reset(tick)
					continue
				}
				finish()
				lost := -1
				for gpu, owed := range owedByGPU {
					if owed > 0 {
						lost = gpu
						break
					}
				}
				return report, fmt.Errorf("runtime: no worker reply within %v with %d/%d nodes complete: %w",
					opts.WorkerTimeout, completed, total, &ErrWorkerLost{GPU: lost})
			case rep, ok := <-replies:
				if !ok {
					finish()
					return report, fmt.Errorf("runtime: transport closed with %d nodes in flight", len(inflight))
				}
				handleReply(rep)
				break wait
			}
		}
	}
	finish()
	return report, nil
}
