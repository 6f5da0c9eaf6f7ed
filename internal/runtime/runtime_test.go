package runtime

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func ppoPlan(t *testing.T, nodes, iters int, actor, critic model.Config) *core.Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(nodes)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: iters})
	p := core.NewPlan(cluster, g, core.PPOModels(actor, critic))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: cluster.NumGPUs() / 8, TP: 8, PP: 1, MicroBatches: 2}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	return p
}

func TestRunSymmetricPlan(t *testing.T) {
	p := ppoPlan(t, 2, 1, model.LLaMA7B, model.LLaMA7B)
	rep, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Fatalf("unexpected OOM: %v", rep.Errors)
	}
	if rep.MakespanV <= 0 {
		t.Fatal("makespan must be positive")
	}
	if len(rep.CallTimes) != 6 {
		t.Errorf("CallTimes has %d entries, want 6", len(rep.CallTimes))
	}
	if rep.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", rep.Iterations)
	}
	for name, d := range rep.CallTimes {
		if d <= 0 {
			t.Errorf("call %s has non-positive duration", name)
		}
	}
}

func TestRunMatchesEstimatorClosely(t *testing.T) {
	// The paper's Fig. 12 (right): the estimator stays within ~25% of real
	// runs. Here the estimator uses the oracle the runtime compiles from, so
	// the runtime executes the estimator's own timeline and the two agree
	// exactly — no dispatch overhead or other runtime-only cost exists.
	p := ppoPlan(t, 2, 1, model.LLaMA7B, model.LLaMA7B)
	e := estimator.NewOracle(p.Cluster, p.Models, true)
	est, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != est.TimeCost {
		t.Errorf("runtime %.9fs != estimate %.9fs", rep.MakespanV, est.TimeCost)
	}
	if !reflect.DeepEqual(rep.CallTimes, est.CallTimes) {
		t.Errorf("runtime call times %v != estimated %v", rep.CallTimes, est.CallTimes)
	}
}

func TestMultiIterationAmortization(t *testing.T) {
	p1 := ppoPlan(t, 1, 1, model.LLaMA7B, model.LLaMA7B)
	p3 := ppoPlan(t, 1, 3, model.LLaMA7B, model.LLaMA7B)
	r1, err := Run(p1, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(p3, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", r3.Iterations)
	}
	perIter := r3.IterTime()
	if math.Abs(perIter-r1.MakespanV)/r1.MakespanV > 0.35 {
		t.Errorf("per-iteration time %.2fs far from single-iteration %.2fs", perIter, r1.MakespanV)
	}
}

// TestWorkerLedgerConcurrent: the lock-free ledger under concurrent Handle
// calls with different allocations while another goroutine reads Peak (run
// it under -race). Every OOM verdict is static+alloc > MemoryBytes, fences
// leave the ledger alone, the peak a reader sees never falls, and the final
// peak is the largest static+alloc handled. Reset then clears the peak and
// replaces the resting memory.
func TestWorkerLedgerConcurrent(t *testing.T) {
	const static, capacity, senders, perSender = 100, 5000, 4, 2000
	w := NewModelWorker(0, capacity)
	w.Reset(static)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for last := int64(0); ; {
			select {
			case <-stop:
				return
			default:
			}
			p := w.Peak()
			if p < last {
				t.Errorf("peak fell from %d to %d", last, p)
				return
			}
			last = p
		}
	}()
	maxNeed := make([]int64, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := g*perSender + i
				req := Request{ID: id, Kind: ReqNode, AllocBytes: int64(id*7919) % 6000}
				if i%10 == 0 {
					req.Kind, req.AllocBytes = ReqFence, 1<<40
				}
				rep := w.Handle(req)
				if req.Kind == ReqFence {
					if rep.OOM || rep.ID != id {
						t.Errorf("fence %d answered %+v", id, rep)
					}
					continue
				}
				need := static + req.AllocBytes
				if rep.OOM != (need > capacity) || (rep.Error != "") != rep.OOM {
					t.Errorf("request %d needing %d of %d: OOM=%t %q", id, need, int64(capacity), rep.OOM, rep.Error)
				}
				maxNeed[g] = max(maxNeed[g], need)
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	want := int64(0)
	for _, need := range maxNeed {
		want = max(want, need)
	}
	if w.Peak() != want {
		t.Fatalf("peak = %d, want the largest static+alloc %d", w.Peak(), want)
	}
	w.Reset(0)
	if w.Peak() != 0 {
		t.Fatalf("peak = %d after Reset, want 0", w.Peak())
	}
	if rep := w.Handle(Request{Kind: ReqNode, AllocBytes: capacity}); rep.OOM || w.Peak() != capacity {
		t.Fatalf("after Reset(0) a full-device request answered %+v with peak %d", rep, w.Peak())
	}
}

// oomPlan places a 70B actor pure-DP across two nodes: every device runs out
// of memory.
func oomPlan(t testing.TB) *core.Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA70B, model.LLaMA7B))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: 16, TP: 1, PP: 1, MicroBatches: 1}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	return p
}

func TestRunReportsOOM(t *testing.T) {
	rep, err := Run(oomPlan(t), Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM {
		t.Error("70B pure-DP run must report OOM")
	}
	if len(rep.Errors) == 0 {
		t.Error("OOM must carry worker error messages")
	}
}

func TestAsymmetricPlanOverlapsAndReallocates(t *testing.T) {
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, _ := mesh.New(0, 8, 8)
	m1, _ := mesh.New(8, 8, 8)
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	p.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	p.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}

	rep, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Fatalf("plan OOMed: %v", rep.Errors)
	}
	if rep.CommTimeV <= 0 {
		t.Error("asymmetric plan must spend time on realloc/data transfer")
	}
	// Actor and critic training are independent and disjoint: their spans
	// must overlap.
	var at, ct NodeSpan
	for _, span := range rep.Timeline {
		switch span.Label {
		case "ActorTrain@0":
			at = span
		case "CriticTrain@0":
			ct = span
		}
	}
	if at.EndV <= ct.StartV || ct.EndV <= at.StartV {
		t.Error("disjoint actor/critic training did not overlap in virtual time")
	}
}

// TestWorkerFIFOAndClock: a worker handles its requests in arrival order, and
// the virtual clock its requests follow — compiled from the estimator's
// timeline rather than kept by the worker — serializes each device and waits
// for data readiness.
func TestWorkerFIFOAndClock(t *testing.T) {
	ct := NewChanTransport([]*ModelWorker{NewModelWorker(0, 1<<30)})
	defer ct.Close()
	for id := 1; id <= 3; id++ {
		if err := ct.Send(0, Request{ID: id, Kind: ReqNode}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		if rep := <-ct.Replies(); rep.ID != want {
			t.Fatalf("reply %d arrived in position %d: requests must execute FIFO", rep.ID, want)
		}
	}

	prog, err := Compile(reallocHeavyPlan(t, 2), Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	checkCompiledClock(t, prog)
}

// checkCompiledClock walks prog's nodes in schedule order and fails unless
// each starts no earlier than its parents end (data readiness) and no
// earlier than the previous node on every (device, stream) lane it occupies
// ends (same-stream requests serialize).
func checkCompiledClock(t *testing.T, prog *Program) {
	t.Helper()
	type lane struct {
		gpu    int
		stream Stream
	}
	lastEnd := map[lane]float64{}
	for _, id := range prog.order {
		w := &prog.works[id]
		if w.endV < w.startV {
			t.Fatalf("%s ends at %v before it starts at %v", w.label, w.endV, w.startV)
		}
		for _, parent := range w.node.Parents {
			if pw := &prog.works[parent]; w.startV < pw.endV {
				t.Fatalf("%s starts at %v before its parent %s ends at %v", w.label, w.startV, pw.label, pw.endV)
			}
		}
		for _, gpu := range w.gpus {
			l := lane{gpu, w.stream}
			if w.startV < lastEnd[l] {
				t.Fatalf("%s starts at %v on gpu %d's %s stream before the previous node there ends at %v",
					w.label, w.startV, gpu, w.stream, lastEnd[l])
			}
			lastEnd[l] = w.endV
		}
	}
}

func TestWorkerOOM(t *testing.T) {
	w := NewModelWorker(3, 1000)
	w.Reset(900)
	rep := w.Handle(Request{ID: 1, AllocBytes: 200})
	if !rep.OOM {
		t.Error("allocation beyond capacity must OOM")
	}
	ok := w.Handle(Request{ID: 2, AllocBytes: 50})
	if ok.OOM {
		t.Error("allocation within capacity must succeed")
	}
	if w.Peak() != 1100 {
		t.Errorf("peak = %d, want 1100", w.Peak())
	}
}

// tcpPool serves a fleet of model workers for plan's cluster over TCP and
// returns a pool driving it through the socket transport. Both sides are
// torn down when the test ends.
func tcpPool(t *testing.T, plan *core.Plan) (*WorkerPool, *TCPTransport) {
	t.Helper()
	workers := make([]*ModelWorker, plan.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
	}
	addr, stop, err := ServeWorkersTCP(workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	tr, err := NewTCPTransport(addr, len(workers))
	if err != nil {
		t.Fatal(err)
	}
	wp := NewWorkerPoolWith(workers, tr)
	t.Cleanup(func() { wp.Close() })
	return wp, tr
}

// runPool resets wp to plan's static footprint and executes plan on it.
func runPool(t *testing.T, wp *WorkerPool, plan *core.Plan, opts Options) *Report {
	t.Helper()
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}
	rep, err := wp.Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTCPTransportRoundTrip(t *testing.T) {
	p := ppoPlan(t, 1, 1, model.LLaMA7B, model.LLaMA7B)
	wp, _ := tcpPool(t, p)
	rep := runPool(t, wp, p, Options{UseCUDAGraph: true})
	if rep.OOM {
		t.Fatalf("unexpected OOM over TCP: %v", rep.Errors)
	}
	// The same plan over the in-process transport must give identical
	// virtual timing: the transport is a carrier, not a model.
	rep2, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MakespanV-rep2.MakespanV) > 1e-9 {
		t.Errorf("TCP makespan %.6f != chan makespan %.6f", rep.MakespanV, rep2.MakespanV)
	}
}

func TestCUDAGraphFlagChangesGeneration(t *testing.T) {
	p := ppoPlan(t, 1, 1, model.LLaMA7B, model.LLaMA7B)
	on, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(p, Options{UseCUDAGraph: false})
	if err != nil {
		t.Fatal(err)
	}
	if off.CallTimes["ActorGen"] <= on.CallTimes["ActorGen"] {
		t.Error("disabling CUDA graphs must slow generation (Table 6)")
	}
	if math.Abs(off.CallTimes["ActorTrain"]-on.CallTimes["ActorTrain"]) > 1e-9 {
		t.Error("CUDA graphs must not affect training time")
	}
}

func TestTimelineDependenciesHold(t *testing.T) {
	p := ppoPlan(t, 2, 2, model.LLaMA7B, model.LLaMA7B)
	rep, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	// ActorGen@1 must start after ActorTrain@0 completes (parameter
	// version dependency).
	var train0End, gen1Start float64 = -1, -1
	for _, s := range rep.Timeline {
		if s.Label == "ActorTrain@0" {
			train0End = s.EndV
		}
		if s.Label == "ActorGen@1" {
			gen1Start = s.StartV
		}
	}
	if train0End < 0 || gen1Start < 0 {
		t.Fatal("missing expected timeline spans")
	}
	if gen1Start < train0End-1e-9 {
		t.Errorf("ActorGen@1 started at %.3f before ActorTrain@0 ended at %.3f",
			gen1Start, train0End)
	}
}
