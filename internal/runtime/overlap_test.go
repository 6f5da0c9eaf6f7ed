package runtime

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

// reallocHeavyPlan builds the asymmetric split placement: actor-side and
// critic-side calls on disjoint halves, with a differently-parallelized
// generation call so every iteration reallocates actor parameters and moves
// data across meshes.
func reallocHeavyPlan(t testing.TB, iters int) *core.Plan {
	t.Helper()
	cluster := hardware.DefaultCluster(2)
	g := dfg.BuildPPO(dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: iters})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, err := mesh.New(0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := mesh.New(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	// Assignments are per call name and cover every iteration of the graph.
	p.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	p.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}
	return p
}

// TestOverlapHidesCommTime: on a reallocation-heavy plan the overlapped
// engine must beat the serialized baseline strictly, and it cannot save
// more than the total communication time it hides.
func TestOverlapHidesCommTime(t *testing.T) {
	p := reallocHeavyPlan(t, 1)
	serial, err := Run(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CommTimeV <= 0 {
		t.Fatal("realloc-heavy plan must spend comm time")
	}
	if over.MakespanV >= serial.MakespanV {
		t.Errorf("overlap (%.4fs) must be strictly below serialized (%.4fs)",
			over.MakespanV, serial.MakespanV)
	}
	saved := serial.MakespanV - over.MakespanV
	if saved > serial.CommTimeV+1e-9 {
		t.Errorf("overlap saved %.4fs, more than total comm time %.4fs", saved, serial.CommTimeV)
	}
	// The comm bill itself is mode-independent.
	if math.Abs(over.CommTimeV-serial.CommTimeV) > 1e-12 {
		t.Errorf("CommTimeV changed across modes: %.6f vs %.6f", over.CommTimeV, serial.CommTimeV)
	}
	if !over.OverlapComm || serial.OverlapComm {
		t.Error("reports must echo the OverlapComm option")
	}
}

// TestOverlapNeverHurts: for any plan (including symmetric ones with no
// comm nodes) the overlapped makespan is never above the serialized one.
func TestOverlapNeverHurts(t *testing.T) {
	sym := ppoPlan(t, 2, 1, model.LLaMA7B, model.LLaMA7B)
	for _, p := range []*core.Plan{sym, reallocHeavyPlan(t, 2)} {
		serial, err := Run(p, Options{UseCUDAGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		over, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			t.Fatal(err)
		}
		if over.MakespanV > serial.MakespanV+1e-9 {
			t.Errorf("overlap (%.4fs) worse than serialized (%.4fs)", over.MakespanV, serial.MakespanV)
		}
	}
}

// TestRunDeterministicTimeline: the concurrent engine must be byte-
// reproducible in virtual time — identical MakespanV, CallTimes and
// Timeline across repeated runs, in both overlap modes and under -race
// scheduling noise.
func TestRunDeterministicTimeline(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		p := reallocHeavyPlan(t, 3)
		base, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: overlap})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 4; rep++ {
			r, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: overlap})
			if err != nil {
				t.Fatal(err)
			}
			if r.MakespanV != base.MakespanV {
				t.Fatalf("overlap=%v run %d: makespan %.9f != %.9f", overlap, rep, r.MakespanV, base.MakespanV)
			}
			if len(r.Timeline) != len(base.Timeline) {
				t.Fatalf("overlap=%v run %d: timeline length %d != %d", overlap, rep, len(r.Timeline), len(base.Timeline))
			}
			for i := range r.Timeline {
				if r.Timeline[i] != base.Timeline[i] {
					t.Fatalf("overlap=%v run %d: timeline[%d] = %+v != %+v",
						overlap, rep, i, r.Timeline[i], base.Timeline[i])
				}
			}
			for name, d := range base.CallTimes {
				if r.CallTimes[name] != d {
					t.Fatalf("overlap=%v run %d: CallTimes[%s] drifted", overlap, rep, name)
				}
			}
		}
	}
}

// TestOverlapDeterministicOverTCP: the transport is a carrier, not a model —
// the overlapped schedule must produce identical virtual timing over TCP
// sockets and in-process channels.
func TestOverlapDeterministicOverTCP(t *testing.T) {
	p := reallocHeavyPlan(t, 1)
	wp, _ := tcpPool(t, p)
	tcpRep := runPool(t, wp, p, Options{UseCUDAGraph: true, OverlapComm: true})
	chanRep, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tcpRep.MakespanV-chanRep.MakespanV) > 1e-9 {
		t.Errorf("TCP makespan %.6f != chan makespan %.6f", tcpRep.MakespanV, chanRep.MakespanV)
	}
}

// TestOverlapConsistentWithEstimator: with matching OverlapComm settings the
// runtime executes the estimator's priority-queue simulation of the
// realloc-heavy config exactly, in both stream modes.
func TestOverlapConsistentWithEstimator(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		p := reallocHeavyPlan(t, 1)
		e := estimator.NewOracle(p.Cluster, p.Models, true)
		e.OverlapComm = overlap
		est, err := e.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: overlap})
		if err != nil {
			t.Fatal(err)
		}
		if rep.MakespanV != est.TimeCost {
			t.Errorf("overlap=%v: runtime %.9fs != estimate %.9fs", overlap, rep.MakespanV, est.TimeCost)
		}
		if !reflect.DeepEqual(rep.CallTimes, est.CallTimes) {
			t.Errorf("overlap=%v: runtime call times %v != estimated %v", overlap, rep.CallTimes, est.CallTimes)
		}
	}
}

// TestWorkerStreamsOverlap: under OverlapComm a worker's two streams advance
// independently in the compiled timeline — communication runs on a device
// while a model function call occupies its compute stream — and requests
// sharing a stream serialize. Without overlap every request rides the
// compute stream.
func TestWorkerStreamsOverlap(t *testing.T) {
	p := reallocHeavyPlan(t, 1)
	serial, err := Compile(p, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Compile(p, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	checkCompiledClock(t, serial)
	checkCompiledClock(t, over)
	for i := range serial.works {
		if w := &serial.works[i]; w.stream != StreamCompute {
			t.Fatalf("serialized %s rides the %s stream", w.label, w.stream)
		}
	}
	crossStream := false
	for i := range over.works {
		c := &over.works[i]
		if !c.node.Kind.CommLike() {
			continue
		}
		if c.stream != StreamComm {
			t.Fatalf("overlapped %s rides the %s stream", c.label, c.stream)
		}
		for j := range over.works {
			k := &over.works[j]
			if !k.node.Kind.CommLike() && sharesGPU(c.gpus, k.gpus) && c.startV < k.endV && k.startV < c.endV {
				crossStream = true
			}
		}
	}
	if !crossStream {
		t.Error("no communication overlapped a call on a shared device")
	}
}

// sharesGPU reports whether two ascending device lists intersect.
func sharesGPU(a, b []int) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// --- error paths ---

// TestRunCancelled: a cancelled context aborts the dispatch loop, returning
// the partial report alongside the context error.
func TestRunCancelled(t *testing.T) {
	p := ppoPlan(t, 1, 4, model.LLaMA7B, model.LLaMA7B)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(p, Options{UseCUDAGraph: true, Context: ctx})
	if err == nil {
		t.Fatal("cancelled run must return an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return the partial report")
	}
	if len(rep.Timeline) >= 4*12 {
		t.Errorf("cancelled run completed %d nodes, expected a partial timeline", len(rep.Timeline))
	}
}

// cancelAfterChecks cancels its context at its (k+1)-th Err check. The
// in-call path checks the context once per dispatched node, so a run under
// it dispatches exactly k nodes.
type cancelAfterChecks struct {
	context.Context
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfterChecks) Err() error {
	if c.left--; c.left < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRunCancelledInCall: on a bare ChanTransport pool, whose workers answer
// inside the dispatch call so the master never blocks, a context cancelled
// after the k-th dispatched node stops the run right there: a wrapped
// context.Canceled and a partial report of exactly k nodes. No reply is left
// behind, so the next Reset and run reproduce the one-shot report.
func TestRunCancelledInCall(t *testing.T) {
	p := ppoPlan(t, 1, 4, model.LLaMA7B, model.LLaMA7B)
	opts := Options{UseCUDAGraph: true}
	full, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	wp := NewWorkerPool(p.Cluster.NumGPUs(), p.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	static := estimator.StaticPerGPU(p)
	for _, k := range []int{0, 1, 7} {
		parent, cancel := context.WithCancel(context.Background())
		cancelled := opts
		cancelled.Context = &cancelAfterChecks{Context: parent, cancel: cancel, left: k}
		if err := wp.Reset(static); err != nil {
			t.Fatal(err)
		}
		rep, err := wp.Run(p, cancelled)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: cancelled in-call run returned %v, want a wrapped context.Canceled", k, err)
		}
		if rep == nil || len(rep.Timeline) != k {
			t.Fatalf("k=%d: cancelled run reported %v, want a partial report of %d nodes", k, rep, k)
		}
		if rep.CompletedIterations >= rep.Iterations {
			t.Fatalf("k=%d: CompletedIterations = %d of %d after cancellation, want a partial report",
				k, rep.CompletedIterations, rep.Iterations)
		}
		if got := runPool(t, wp, p, opts); !reflect.DeepEqual(got, full) {
			t.Fatalf("k=%d: the run after a cancelled one differs from the one-shot run", k)
		}
	}
}

// inlineTransport handles each request inside Send and buffers the reply,
// so the master finds a reply queued at every step of the run and never
// blocks. Its cancelAt-th Send cancels the run's context.
type inlineTransport struct {
	workers  []*ModelWorker
	replies  chan Reply
	cancel   context.CancelFunc
	cancelAt int
	sends    int
}

func (it *inlineTransport) Send(gpu int, req Request) error {
	if it.sends++; it.sends == it.cancelAt {
		it.cancel()
	}
	it.replies <- it.workers[gpu].Handle(req)
	return nil
}

func (it *inlineTransport) Replies() <-chan Reply { return it.replies }
func (it *inlineTransport) Close() error          { return nil }

// TestRunCancelledWhileRepliesReady: a cancellation is observed even when
// the master never waits for a reply, because a reply is always queued.
func TestRunCancelledWhileRepliesReady(t *testing.T) {
	p := ppoPlan(t, 1, 4, model.LLaMA7B, model.LLaMA7B)
	opts := Options{UseCUDAGraph: true}
	prog, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0 // the run's every reply fits the buffer, so Send never blocks
	for _, w := range prog.works {
		sends += len(w.gpus)
	}
	workers := make([]*ModelWorker, p.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, p.Cluster.GPU.MemoryBytes)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := &inlineTransport{workers: workers, replies: make(chan Reply, sends), cancel: cancel, cancelAt: 3}
	opts.Context = ctx
	rep, err := NewWorkerPoolWith(workers, it).Run(p, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled with replies always ready returned %v, want a wrapped context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return the partial report")
	}
	if rep.CompletedIterations >= rep.Iterations {
		t.Fatalf("CompletedIterations = %d of %d after cancellation, want a partial report",
			rep.CompletedIterations, rep.Iterations)
	}
}

// TestCustomTransportRequiresWorkers: a pool adopting a custom transport
// must bring one worker per device of the plan — the worker ledgers account
// peak memory and OOM — or the run is refused before anything is sent.
func TestCustomTransportRequiresWorkers(t *testing.T) {
	p := ppoPlan(t, 1, 1, model.LLaMA7B, model.LLaMA7B)
	workers := make([]*ModelWorker, p.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, p.Cluster.GPU.MemoryBytes)
	}
	tr := NewChanTransport(workers)
	defer tr.Close()
	for _, adopted := range [][]*ModelWorker{nil, workers[:1]} {
		if _, err := NewWorkerPoolWith(adopted, tr).Run(p, Options{UseCUDAGraph: true}); err == nil {
			t.Fatalf("custom Transport with %d of %d workers must error", len(adopted), len(workers))
		}
	}
}

// closedTransport hands back a closed reply channel — the shape of a worker
// fleet that died mid-run.
type closedTransport struct{ replies chan Reply }

func (c *closedTransport) Send(gpu int, req Request) error { return nil }
func (c *closedTransport) Replies() <-chan Reply           { return c.replies }
func (c *closedTransport) Close() error                    { return nil }

// TestTransportClosedMidRun: a reply channel that closes with nodes in
// flight is an error, not a hang or a fabricated report.
func TestTransportClosedMidRun(t *testing.T) {
	p := ppoPlan(t, 1, 1, model.LLaMA7B, model.LLaMA7B)
	ct := &closedTransport{replies: make(chan Reply)}
	close(ct.replies)
	workers := make([]*ModelWorker, p.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, p.Cluster.GPU.MemoryBytes)
	}
	wp := NewWorkerPoolWith(workers, ct)
	_, err := wp.Run(p, Options{UseCUDAGraph: true})
	if err == nil {
		t.Fatal("closed transport must surface an error")
	}
	if !strings.Contains(err.Error(), "transport closed") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestOOMErrorsPropagateSorted: every worker OOM message lands in
// Report.Errors, deterministically ordered, in both overlap modes.
func TestOOMErrorsPropagateSorted(t *testing.T) {
	p := oomPlan(t)
	for _, overlap := range []bool{false, true} {
		rep, err := Run(p, Options{UseCUDAGraph: true, OverlapComm: overlap})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OOM || len(rep.Errors) == 0 {
			t.Fatalf("overlap=%v: 70B pure-DP run must OOM with messages", overlap)
		}
		for i := 1; i < len(rep.Errors); i++ {
			if rep.Errors[i] < rep.Errors[i-1] {
				t.Fatalf("overlap=%v: Errors not sorted at %d", overlap, i)
			}
		}
	}
}

// TestPipelinedIterationsNoBarrier: back-to-back iterations are driven by
// graph dependencies alone — the engine adds no synchronization barrier at
// iteration boundaries (a 2-iteration run never exceeds two sequential
// single-iteration runs), and the comm stream keeps hiding reallocation
// across the whole multi-iteration pipeline.
func TestPipelinedIterationsNoBarrier(t *testing.T) {
	one, err := Run(reallocHeavyPlan(t, 1), Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(reallocHeavyPlan(t, 2), Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if two.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", two.Iterations)
	}
	if two.MakespanV > 2*one.MakespanV+1e-9 {
		t.Errorf("2 iterations (%.2fs) paid a barrier penalty over 2x single (%.2fs)",
			two.MakespanV, 2*one.MakespanV)
	}
	twoSerial, err := Run(reallocHeavyPlan(t, 2), Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if two.MakespanV >= twoSerial.MakespanV {
		t.Errorf("multi-iteration overlap (%.2fs) must stay strictly below serialized (%.2fs)",
			two.MakespanV, twoSerial.MakespanV)
	}
}
