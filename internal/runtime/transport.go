package runtime

import (
	"encoding/gob"
	"fmt"
	"net"
	goruntime "runtime"
	"sync"
)

// ChanTransport is the in-process transport used by tests, benchmarks, the
// default Run path and Trainer sessions. Workers are sharded over
// min(GOMAXPROCS, workers) executor goroutines: device i belongs to shard
// i % S, and each shard drains one unbounded FIFO of requests in arrival
// order. That preserves per-worker FIFO order — all the fence protocol
// relies on — while the streams' overlap is virtual, fixed in the compiled
// timeline, so no goroutine per lane is needed. Send never blocks.
type ChanTransport struct {
	workers []*ModelWorker
	shards  []*shard
	replies chan Reply
	// stop is closed by Close; executors blocked on a full reply channel or
	// on an empty queue observe it and exit.
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// shard is one executor's request queue.
type shard struct {
	mu     sync.Mutex
	queue  []routed
	idle   bool // the executor waits on wake for the next request
	closed bool
	// wake has room for exactly the one signal an idle executor awaits:
	// only the Send that clears idle sends it.
	wake chan struct{}
}

// routed is a request bound for one device of a shard.
type routed struct {
	gpu int
	req Request
}

// NewChanTransport starts the executor goroutines for the fleet.
func NewChanTransport(workers []*ModelWorker) *ChanTransport {
	t := &ChanTransport{
		workers: workers,
		shards:  make([]*shard, min(goruntime.GOMAXPROCS(0), len(workers))),
		replies: make(chan Reply, 4*NumStreams*len(workers)+16),
		stop:    make(chan struct{}),
	}
	for i := range t.shards {
		sh := &shard{wake: make(chan struct{}, 1)}
		t.shards[i] = sh
		t.wg.Add(1)
		go t.execute(sh)
	}
	return t
}

// execute is one shard's executor loop: it takes the whole queue at once
// and handles it in arrival order, replying in the same order.
func (t *ChanTransport) execute(sh *shard) {
	defer t.wg.Done()
	var batch []routed
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 {
			if sh.closed {
				sh.mu.Unlock()
				return
			}
			sh.idle = true
			sh.mu.Unlock()
			select {
			case <-sh.wake:
			case <-t.stop:
				return
			}
			sh.mu.Lock()
		}
		batch, sh.queue = sh.queue, batch[:0]
		sh.mu.Unlock()
		for _, r := range batch {
			rep := t.workers[r.gpu].Handle(r.req)
			// Try the cheap non-blocking send first; only a full reply
			// channel pays for the two-way select.
			select {
			case t.replies <- rep:
				continue
			default:
			}
			select {
			case t.replies <- rep:
			case <-t.stop:
				return
			}
		}
	}
}

// Send implements Transport. It enqueues and returns without waiting, so a
// backed-up fleet can never wedge the master or Close; sending on a closed
// transport returns a prompt error.
func (t *ChanTransport) Send(gpu int, req Request) error {
	if gpu < 0 || gpu >= len(t.workers) {
		return fmt.Errorf("runtime: no worker for gpu %d", gpu)
	}
	sh := t.shards[gpu%len(t.shards)]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return fmt.Errorf("runtime: send to gpu %d: transport closed", gpu)
	}
	sh.queue = append(sh.queue, routed{gpu: gpu, req: req})
	wake := sh.idle
	sh.idle = false
	sh.mu.Unlock()
	if wake {
		sh.wake <- struct{}{}
	}
	return nil
}

// Replies implements Transport.
func (t *ChanTransport) Replies() <-chan Reply { return t.replies }

// Close implements Transport: later Sends fail, requests still queued are
// dropped, and Close returns once every executor goroutine has exited.
// Idempotent.
func (t *ChanTransport) Close() error {
	t.once.Do(func() {
		for _, sh := range t.shards {
			sh.mu.Lock()
			sh.closed = true
			sh.queue = nil
			sh.mu.Unlock()
		}
		close(t.stop)
		t.wg.Wait()
	})
	return nil
}

// TCPTransport serves model workers over real TCP sockets with gob-encoded
// messages — the cross-process deployment shape of the paper's runtime
// engine. The master dials one connection per worker, which is that worker's
// FIFO (the streams' overlap is virtual, fixed in the compiled timeline).
type TCPTransport struct {
	conns   []net.Conn
	encs    []*gob.Encoder
	encMu   []sync.Mutex
	replies chan Reply
	wg      sync.WaitGroup
	once    sync.Once

	mu     sync.RWMutex
	closed bool
}

// ServeWorkersTCP starts a TCP listener and one worker loop per device; the
// returned address is what NewTCPTransport dials. Worker i identifies itself
// by sending its GPU index on connect.
func ServeWorkersTCP(workers []*ModelWorker) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				// Either stop() closed the listener or the socket died;
				// both end the accept loop.
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				dec := gob.NewDecoder(conn)
				enc := gob.NewEncoder(conn)
				var gpu int
				if err := dec.Decode(&gpu); err != nil {
					return
				}
				if gpu < 0 || gpu >= len(workers) {
					return
				}
				w := workers[gpu]
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return
					}
					if req.Kind == ReqShutdown {
						return
					}
					if err := enc.Encode(w.Handle(req)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}, nil
}

// NewTCPTransport connects the master to a worker server for n devices.
func NewTCPTransport(addr string, n int) (*TCPTransport, error) {
	t := &TCPTransport{
		conns:   make([]net.Conn, n),
		encs:    make([]*gob.Encoder, n),
		encMu:   make([]sync.Mutex, n),
		replies: make(chan Reply, 4*NumStreams*n+16),
	}
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("runtime: dial worker %d: %w", i, err)
		}
		t.conns[i] = conn
		enc := gob.NewEncoder(conn)
		t.encs[i] = enc
		if err := enc.Encode(i); err != nil {
			t.Close()
			return nil, fmt.Errorf("runtime: handshake worker %d: %w", i, err)
		}
		dec := gob.NewDecoder(conn)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				var rep Reply
				if err := dec.Decode(&rep); err != nil {
					return
				}
				t.replies <- rep
			}
		}()
	}
	return t, nil
}

// Send implements Transport. Like ChanTransport.Send, sending on a closed
// transport returns a prompt, explicit error (rather than surfacing the
// underlying closed-socket write failure).
func (t *TCPTransport) Send(gpu int, req Request) error {
	if gpu < 0 || gpu >= len(t.conns) || t.conns[gpu] == nil {
		return fmt.Errorf("runtime: no connection for gpu %d", gpu)
	}
	// Hold the read lock across the encode: releasing it first would let a
	// concurrent Close slip in and surface as a raw closed-socket gob error
	// instead of the explicit transport-closed error promised here.
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return fmt.Errorf("runtime: send to gpu %d: transport closed", gpu)
	}
	t.encMu[gpu].Lock()
	defer t.encMu[gpu].Unlock()
	return t.encs[gpu].Encode(req)
}

// Replies implements Transport.
func (t *TCPTransport) Replies() <-chan Reply { return t.replies }

// Close implements Transport. Like ChanTransport.Close it drains straggler
// replies so reader goroutines blocked on the reply channel can exit.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		for gpu, conn := range t.conns {
			if conn == nil {
				continue
			}
			t.encMu[gpu].Lock()
			_ = t.encs[gpu].Encode(Request{Kind: ReqShutdown})
			t.encMu[gpu].Unlock()
			conn.Close()
		}
		done := make(chan struct{})
		go func() {
			t.wg.Wait()
			close(done)
		}()
		for {
			select {
			case <-t.replies: // discard
			case <-done:
				return
			}
		}
	})
	return nil
}
