package realhf

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"realhf/internal/runtime"
)

// tcpChaosRig builds Trainer worker fleets served over real TCP sockets
// (runtime.ServeWorkersTCP + NewTCPTransport) with a FaultyTransport
// wrapped around the wire, so worker death is injected under the same
// concurrency the socket transport brings: decoder goroutines per
// connection, the wrapper's pump goroutine, and the master — the topology
// the race detector is pointed at.
type tcpChaosRig struct {
	t  *testing.T
	mu sync.Mutex
	ft *runtime.FaultyTransport
}

func (r *tcpChaosRig) factory(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
	workers := make([]*runtime.ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, memoryBytes)
	}
	addr, stop, err := runtime.ServeWorkersTCP(workers)
	if err != nil {
		return nil, err
	}
	r.t.Cleanup(stop)
	tcp, err := runtime.NewTCPTransport(addr, numGPUs)
	if err != nil {
		return nil, err
	}
	ft := runtime.NewFaultyTransport(tcp)
	r.mu.Lock()
	r.ft = ft
	r.mu.Unlock()
	return runtime.NewWorkerPoolWith(workers, ft), nil
}

func (r *tcpChaosRig) transport() *runtime.FaultyTransport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ft
}

// TestChaosCampaignOverTCP is the end-to-end resilience drill the ISSUE
// prescribes, run under -race in CI: a campaign over a TCP worker fleet
// loses a device mid-iteration, the Trainer shrink-replans onto the
// survivor mesh and finishes the campaign; a checkpoint taken afterwards
// resumes on a fresh planner (over the default in-process transport — the
// virtual timeline is transport-independent) and replays the next
// iteration byte-identically.
func TestChaosCampaignOverTCP(t *testing.T) {
	ctx := context.Background()
	rig := &tcpChaosRig{t: t}
	cfg := trainerConfig()
	cfg.Nodes = 2
	run := DefaultRunOptions()
	run.WorkerTimeout = 500 * time.Millisecond
	schedule := WithGenLenSchedule(rampSchedule)

	tr, err := NewPlanner(ClusterConfig{}).Train(ctx, cfg,
		WithWorkerPoolFactory(rig.factory),
		WithTrainRunOptions(run),
		schedule,
		WithIterationProgress(func(r IterationReport) {
			if r.Iter == 0 {
				// Arm mid-iteration death: gpu 5's second delivery during the
				// next iteration (the Reset fence, then its first dispatch)
				// finds the worker dead, replies already in flight vanish,
				// and fresh sends fail.
				rig.transport().InjectAfter(5, 2, runtime.FaultKill)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	rep, err := tr.Campaign(ctx, 3)
	if err != nil {
		t.Fatalf("chaos campaign must survive the injected death: %v", err)
	}
	if rep.CompletedIterations != 3 || len(rep.Iterations) != 3 {
		t.Fatalf("campaign completed %d/3 iterations", rep.CompletedIterations)
	}
	if rep.WorkerFailures != 1 {
		t.Fatalf("campaign recorded %d worker failures, want 1", rep.WorkerFailures)
	}
	lossIter := -1
	for _, r := range rep.Iterations {
		if r.WorkerLost {
			if lossIter >= 0 {
				t.Fatalf("two iterations report losses: %d and %d", lossIter, r.Iter)
			}
			lossIter = r.Iter
			if len(r.LostGPUs) != 1 || r.LostGPUs[0] != 5 {
				t.Fatalf("iteration %d lost gpus %v, want [5]", r.Iter, r.LostGPUs)
			}
			if !r.Replanned || !r.Switched || r.ReallocSwitchCost <= 0 {
				t.Fatalf("loss iteration did not adopt a shrink-replan: %+v", r)
			}
			if r.Nodes != 1 {
				t.Fatalf("loss iteration ran on %d nodes, want the 1 survivor", r.Nodes)
			}
		}
	}
	if lossIter <= 0 {
		t.Fatalf("no iteration after the first recorded the injected loss (lossIter %d)", lossIter)
	}
	if st := tr.Stats(); st.Nodes != 1 || st.WorkerFailures != 1 {
		t.Fatalf("post-chaos stats: %+v", st)
	}

	// Durable resume replays the degraded campaign exactly.
	var ckpt bytes.Buffer
	if err := tr.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	cont, err := tr.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewPlanner(ClusterConfig{}).ResumeTrain(ctx, &ckpt, cfg,
		WithTrainRunOptions(run), schedule)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	replay, err := resumed.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Iter != cont.Iter || replay.PlanFingerprint != cont.PlanFingerprint ||
		replay.MakespanV != cont.MakespanV || replay.ReallocSwitchCost != cont.ReallocSwitchCost {
		t.Fatalf("resumed replay diverged:\n got %+v\nwant %+v", replay, cont)
	}
}
