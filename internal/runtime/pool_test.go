package runtime

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"realhf/internal/estimator"
	"realhf/internal/model"
)

// TestWorkerPoolReuseAcrossIterations: one pool executes several iterations
// back to back with Reset between them; every iteration reproduces the
// one-shot Run path, proving reuse leaks no memory state across iterations.
func TestWorkerPoolReuseAcrossIterations(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}

	wp := NewWorkerPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	static := estimator.StaticPerGPU(plan)
	for iter := 0; iter < 3; iter++ {
		if err := wp.Reset(static); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		rep, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if rep.MakespanV != oneShot.MakespanV {
			t.Fatalf("iter %d: pooled makespan %v != one-shot %v", iter, rep.MakespanV, oneShot.MakespanV)
		}
		if rep.PeakBytes != oneShot.PeakBytes {
			t.Fatalf("iter %d: pooled peak %d != one-shot %d", iter, rep.PeakBytes, oneShot.PeakBytes)
		}
	}
}

// TestWorkerPoolReuseOverTCP: the same reuse protocol over real sockets —
// fences and resets flow through the gob transport, and the virtual timings
// match the in-process transport exactly.
func TestWorkerPoolReuseOverTCP(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}

	wp, _ := tcpPool(t, plan)
	for iter := 0; iter < 2; iter++ {
		rep := runPool(t, wp, plan, Options{UseCUDAGraph: true, OverlapComm: true})
		if rep.MakespanV != oneShot.MakespanV {
			t.Fatalf("iter %d: TCP pooled makespan %v != one-shot %v", iter, rep.MakespanV, oneShot.MakespanV)
		}
	}
}

// TestSendAfterStopPromptError: Send on a closed transport returns an
// explicit error immediately — no panic on a closed queue, no hang — over
// both transports. Concurrent senders racing Close stay race-free.
func TestSendAfterStopPromptError(t *testing.T) {
	workers := []*ModelWorker{NewModelWorker(0, 1<<30)}
	ct := NewChanTransport(workers)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Few enough fences that worker replies fit the reply buffer:
			// nobody consumes replies here, and a full buffer would wedge
			// the workers mid-test.
			for j := 0; j < 4; j++ {
				if err := ct.Send(0, Request{ID: fenceID(0), Kind: ReqFence}); err != nil {
					if !strings.Contains(err.Error(), "transport closed") {
						t.Errorf("unexpected send error: %v", err)
					}
					return
				}
			}
		}()
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := ct.Send(0, Request{Kind: ReqFence}); err == nil || !strings.Contains(err.Error(), "transport closed") {
		t.Fatalf("chan send after Close = %v, want prompt transport-closed error", err)
	}

	tcpWorkers := []*ModelWorker{NewModelWorker(0, 1<<30)}
	addr, stop, err := ServeWorkersTCP(tcpWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tr, err := NewTCPTransport(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, Request{Kind: ReqFence}); err == nil || !strings.Contains(err.Error(), "transport closed") {
		t.Fatalf("tcp send after Close = %v, want prompt transport-closed error", err)
	}
}

// TestChanTransportCloseWithBackedUpLane: a fleet whose replies nobody reads
// backs up, yet Send keeps returning (the backlog is unbounded) and Close
// still returns promptly, with no pump goroutine outliving it.
func TestChanTransportCloseWithBackedUpLane(t *testing.T) {
	before := goruntime.NumGoroutine()
	ct := NewChanTransport([]*ModelWorker{NewModelWorker(0, 1<<30)})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 400; i++ {
			if err := ct.Send(0, Request{ID: i, Kind: ReqNode}); err != nil {
				done <- err
				return
			}
		}
		done <- ct.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send or Close hung on a backed-up lane")
	}
	waitGoroutines(t, before)
	if err := ct.Send(0, Request{Kind: ReqFence}); err == nil || !strings.Contains(err.Error(), "transport closed") {
		t.Fatalf("send after Close = %v, want prompt transport-closed error", err)
	}
}

// TestChanTransportRepliesInSendOrder: with one worker and with several,
// replies leave in Send order across the backlog boundary — three buffers'
// worth sent unread, then two replies read per further Send, so direct
// sends meet a backlog the pump is still draining — and each carries its
// own ledger verdict. Close then leaves no goroutine behind, and a later
// Send fails promptly.
func TestChanTransportRepliesInSendOrder(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			before := goruntime.NumGoroutine()
			workers := make([]*ModelWorker, n)
			for i := range workers {
				workers[i] = NewModelWorker(i, 1000)
			}
			ct := NewChanTransport(workers)
			unread := 3 * cap(ct.replies)
			oom := unread / 2
			send := func(id int) {
				t.Helper()
				alloc := int64(10)
				if id == oom {
					alloc = 2000
				}
				if err := ct.Send(id%n, Request{ID: id, Kind: ReqNode, AllocBytes: alloc}); err != nil {
					t.Fatal(err)
				}
			}
			read := 0
			recv := func() {
				t.Helper()
				select {
				case rep := <-ct.Replies():
					if rep.ID != read || rep.GPU != read%n {
						t.Fatalf("reply %d (gpu %d) arrived in position %d: replies must leave in send order",
							rep.ID, rep.GPU, read)
					}
					if rep.OOM != (read == oom) || (rep.Error != "") != rep.OOM {
						t.Fatalf("reply %d carries OOM=%t %q, want OOM=%t", rep.ID, rep.OOM, rep.Error, read == oom)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("reply %d never arrived", read)
				}
				read++
			}
			sent := 0
			for ; sent < unread; sent++ {
				send(sent)
			}
			for ; sent-read >= 2; sent++ {
				recv()
				recv()
				send(sent)
			}
			for read < sent {
				recv()
			}
			if err := ct.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, before)
			if err := ct.Send(0, Request{Kind: ReqFence}); err == nil || !strings.Contains(err.Error(), "transport closed") {
				t.Fatalf("send after Close = %v, want prompt transport-closed error", err)
			}
		})
	}
}

// TestChanTransportConcurrentSendClose: senders racing Close past the reply
// buffer — a reader takes a varying number of replies first, each sender's
// in its own send order — end with the prompt transport-closed error, and
// Close leaves no pump behind. Run it under -race.
func TestChanTransportConcurrentSendClose(t *testing.T) {
	const senders, perSender = 4, 500
	before := goruntime.NumGoroutine()
	for round := 0; round < 20; round++ {
		workers := []*ModelWorker{NewModelWorker(0, 1<<30), NewModelWorker(1, 1<<30)}
		ct := NewChanTransport(workers)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := ct.Send(i%2, Request{ID: g*perSender + i, Kind: ReqNode}); err != nil {
						if !strings.Contains(err.Error(), "transport closed") {
							t.Errorf("unexpected send error: %v", err)
						}
						return
					}
				}
			}()
		}
		var next [senders]int // each sender's next unread reply
		for i := 0; i < round*10; i++ {
			rep := <-ct.Replies()
			g, seq := rep.ID/perSender, rep.ID%perSender
			if seq != next[g] {
				t.Fatalf("round %d: sender %d's reply %d arrived when its reply %d was due", round, g, seq, next[g])
			}
			next[g]++
		}
		if err := ct.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := ct.Send(1, Request{Kind: ReqFence}); err == nil || !strings.Contains(err.Error(), "transport closed") {
			t.Fatalf("round %d: send after Close = %v, want prompt transport-closed error", round, err)
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for goruntime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("%d goroutines outlived Close (started with %d)", goruntime.NumGoroutine(), before)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestTCPCloseMidIteration: closing the TCP transport while a run is in
// flight surfaces an error from Run promptly instead of hanging the
// dispatch loop.
func TestTCPCloseMidIteration(t *testing.T) {
	plan := reallocHeavyPlan(t, 4)
	wp, tr := tcpPool(t, plan)
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
		errc <- err
	}()
	tr.Close()
	if err := <-errc; err == nil {
		t.Fatal("run over a transport closed mid-iteration must error")
	}
}

// TestTCPCloseWhileWaiting: a TCP fleet whose workers read requests and
// never reply, closed while the master waits with no worker timeout, ends the
// run with a transport-closed error instead of hanging it. Close takes the
// replies the master waits for, so only the reply channel's closing can wake
// it.
func TestTCPCloseWhileWaiting(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	n := plan.Cluster.NumGPUs()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan struct{}, 1)
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				dec := gob.NewDecoder(conn)
				var gpu int
				if dec.Decode(&gpu) != nil {
					return
				}
				for {
					var req Request
					if dec.Decode(&req) != nil {
						return
					}
					if req.Kind == ReqNode {
						select {
						case received <- struct{}{}:
						default:
						}
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		served.Wait()
	})
	tr, err := NewTCPTransport(ln.Addr().String(), n)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*ModelWorker, n)
	for i := range workers {
		workers[i] = NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := NewWorkerPoolWith(workers, tr).Run(plan, Options{UseCUDAGraph: true})
		errc <- err
	}()
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the silent fleet")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "transport closed") {
			t.Fatalf("run over a fleet closed while it waited returned %v, want a transport-closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still waiting 5s after its transport closed")
	}
}

// limitedTransport executes requests against real workers but stops
// replying after `limit` requests, cancelling the run's context instead —
// a way to produce a partial report mid-iteration.
type limitedTransport struct {
	workers []*ModelWorker
	replies chan Reply
	cancel  context.CancelFunc
	limit   int

	mu      sync.Mutex
	handled int
}

func (lt *limitedTransport) Send(gpu int, req Request) error {
	lt.mu.Lock()
	lt.handled++
	over := lt.handled > lt.limit
	lt.mu.Unlock()
	if over {
		lt.cancel() // swallow the request: the node never completes
		return nil
	}
	lt.replies <- lt.workers[gpu].Handle(req)
	return nil
}

func (lt *limitedTransport) Replies() <-chan Reply { return lt.replies }
func (lt *limitedTransport) Close() error          { return nil }

// TestIterTimePartialReportClamps is the regression test for the historical
// bug where IterTime divided a cancelled run's partial makespan by the full
// configured iteration count. A run cancelled before any iteration
// completes must report IterTime == MakespanV (clamped to completed
// iterations), while the configured span is still visible in Iterations.
func TestIterTimePartialReportClamps(t *testing.T) {
	plan := ppoPlan(t, 1, 2, model.LLaMA7B, model.LLaMA7B)
	static := estimator.StaticPerGPU(plan)
	workers := make([]*ModelWorker, plan.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
		workers[i].Reset(static[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Two full nodes' worth of replies, then silence + cancellation: the run
	// ends with iteration 0 partially executed.
	lt := &limitedTransport{
		workers: workers,
		replies: make(chan Reply, 4096),
		cancel:  cancel,
		limit:   2 * plan.Cluster.NumGPUs(),
	}
	rep, err := NewWorkerPoolWith(workers, lt).Run(plan, Options{UseCUDAGraph: true, Context: ctx})
	if err == nil {
		t.Fatal("cancelled run must return an error")
	}
	if rep.Iterations != 2 {
		t.Fatalf("Iterations = %d, want the configured 2", rep.Iterations)
	}
	if rep.CompletedIterations != 0 {
		t.Fatalf("CompletedIterations = %d for a run cancelled mid-iteration-0, want 0", rep.CompletedIterations)
	}
	if rep.MakespanV <= 0 {
		t.Fatal("partial report must still carry the executed makespan")
	}
	if rep.IterTime() != rep.MakespanV {
		t.Fatalf("partial IterTime = %v, want clamp to MakespanV %v (not /%d)",
			rep.IterTime(), rep.MakespanV, rep.Iterations)
	}

	// A completed multi-iteration run still averages over every iteration.
	full, err := Run(plan, Options{UseCUDAGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.CompletedIterations != 2 {
		t.Fatalf("CompletedIterations = %d for a finished run, want 2", full.CompletedIterations)
	}
	if full.IterTime() != full.MakespanV/2 {
		t.Fatalf("full-run IterTime = %v, want %v", full.IterTime(), full.MakespanV/2)
	}
}
