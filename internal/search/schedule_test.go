package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/runtime"
)

// TestRuntimeExecutesEstimatorTimeline is the one-scheduler contract's
// differential property test: for random legal plans (the delta tests'
// candidate generator, offload variants included, over a single- and a
// multi-iteration graph), under both stream semantics and over every reply
// path, runtime.Run reports exactly the oracle-costed, uncalibrated
// Estimator.Evaluate timeline — span for span (label, start, end), with
// MakespanV == TimeCost and equal CallTimes, bit for bit — and its workers
// peak at the estimator's memory ledger: PeakBytes == MaxMem and the same
// OOM verdict, over plans on both sides of device capacity. runtime.Run's
// ChanTransport answers inside the dispatch call; a fault-free
// FaultyTransport around one takes the reply channel, and a TCP fleet
// replies from its sockets. Both must reproduce the in-call Report whole.
func TestRuntimeExecutesEstimatorTimeline(t *testing.T) {
	cluster := hardware.DefaultCluster(1)
	workers := make([]*runtime.ModelWorker, cluster.NumGPUs())
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, cluster.GPU.MemoryBytes)
	}
	addr, stop, err := runtime.ServeWorkersTCP(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tcp, err := runtime.NewTCPTransport(addr, len(workers))
	if err != nil {
		t.Fatal(err)
	}
	fleets := []struct {
		name string
		pool *runtime.WorkerPool
	}{
		{"channel", runtime.NewWorkerPoolWith(workers, runtime.NewFaultyTransport(runtime.NewChanTransport(workers)))},
		{"tcp", runtime.NewWorkerPoolWith(workers, tcp)},
	}
	for _, f := range fleets {
		defer f.pool.Close()
	}

	for _, iters := range []int{1, 2} {
		g := dfg.BuildPPO(dfg.Spec{Batch: 64, PromptLen: 256, GenLen: 256, Iterations: iters})
		p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
		e := estimator.NewOracle(cluster, p.Models, true)
		sets, _, err := candidateSets(p, PruneNone, true)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(iters)))
		plan := p.Clone()
		for trial := 0; trial < 16; trial++ {
			for _, n := range plan.CallNames() {
				cs := sets[n]
				plan.Assign[n] = cs.at(rng.Intn(cs.n))
			}
			for _, overlap := range []bool{false, true} {
				ev := *e
				ev.OverlapComm = overlap
				want, err := ev.Evaluate(plan)
				if err != nil {
					t.Fatal(err)
				}
				opts := runtime.Options{UseCUDAGraph: true, OverlapComm: overlap}
				got, err := runtime.Run(plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("iters=%d trial=%d overlap=%v", iters, trial, overlap)
				sameSchedule(t, name+" in-call", got, want)

				for _, f := range fleets {
					if err := f.pool.Reset(estimator.StaticPerGPU(plan)); err != nil {
						t.Fatal(err)
					}
					other, err := f.pool.Run(plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameSchedule(t, name+" "+f.name, other, want)
					if !reflect.DeepEqual(other, got) {
						t.Fatalf("%s: %s report differs from the in-call report:\n got %+v\nwant %+v",
							name, f.name, other, got)
					}
				}
			}
		}
	}
}

// sameSchedule fails unless the runtime report is the estimate's timeline
// and its workers' memory peak is the estimate's ledger.
func sameSchedule(t *testing.T, name string, got *runtime.Report, want *estimator.Result) {
	t.Helper()
	if got.MakespanV != want.TimeCost {
		t.Fatalf("%s: runtime makespan %v != estimated %v", name, got.MakespanV, want.TimeCost)
	}
	if got.PeakBytes != want.MaxMem || got.OOM != want.OOM {
		t.Fatalf("%s: runtime peak %d B (OOM %v) != estimated %d B (OOM %v)",
			name, got.PeakBytes, got.OOM, want.MaxMem, want.OOM)
	}
	if !reflect.DeepEqual(got.CallTimes, want.CallTimes) {
		t.Fatalf("%s: runtime call times %v != estimated %v", name, got.CallTimes, want.CallTimes)
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("%s: runtime executed %d nodes, estimator scheduled %d", name, len(got.Timeline), len(want.Timeline))
	}
	for i, sn := range want.Timeline {
		span := got.Timeline[i]
		if span.Label != sn.Node.Label() || span.StartV != sn.Start || span.EndV != sn.End {
			t.Fatalf("%s: span %d is %s [%v, %v], estimator scheduled %s [%v, %v]",
				name, i, span.Label, span.StartV, span.EndV, sn.Node.Label(), sn.Start, sn.End)
		}
	}
}
