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
// multi-iteration graph), under both stream semantics and over both
// transports, runtime.Run reports exactly the oracle-costed, uncalibrated
// Estimator.Evaluate timeline — span for span (label, start, end), with
// MakespanV == TimeCost and equal CallTimes, bit for bit — and its workers
// peak at the estimator's memory ledger: PeakBytes == MaxMem and the same
// OOM verdict, over plans on both sides of device capacity.
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
	pool := runtime.NewWorkerPoolWith(workers, tcp)
	defer pool.Close()

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
				plan.Assign[n] = cs[rng.Intn(len(cs))]
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
				sameSchedule(t, name+" chan", got, want)

				if err := pool.Reset(estimator.StaticPerGPU(plan)); err != nil {
					t.Fatal(err)
				}
				if got, err = pool.Run(plan, opts); err != nil {
					t.Fatal(err)
				}
				sameSchedule(t, name+" tcp", got, want)
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
