package runtime

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// ChanTransport is the in-process transport used by tests, benchmarks, the
// default Run path and Trainer sessions. An in-process worker's whole job is
// one memory-ledger check, so the worker answers on the caller's goroutine.
//
// The master's own dispatch loop (and WorkerPool.Reset's fences) take that
// answer as the result of the call: a request sent through the unexported
// in-call method returns its Reply directly, with no reply channel, no
// backlog and no goroutine handoff. Send is the Transport path every other
// caller takes — a wrapper such as FaultyTransport, a test driving the
// fleet by hand: it handles the request the same way and queues the reply.
// Queued replies leave in Send order, which keeps per-worker FIFO order
// (all the fence protocol relies on), and the streams' overlap is virtual,
// fixed in the compiled timeline. A reply that finds the reply channel full
// joins an ordered backlog that one pump goroutine drains; the pump exists
// only while the backlog is non-empty, so Send never blocks and an idle
// transport owns no goroutine.
type ChanTransport struct {
	workers []*ModelWorker
	replies chan Reply
	// closed and backlogged are the two flags the no-backlog path reads,
	// so it takes no lock. Both change only under mu.
	closed     atomic.Bool
	backlogged atomic.Bool // the pump is running; replies go through backlog
	// stop is closed by Close; a pump blocked on a full reply channel
	// observes it and exits.
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	mu      sync.Mutex
	backlog []Reply
}

// NewChanTransport serves the fleet in-process. It starts no goroutine.
func NewChanTransport(workers []*ModelWorker) *ChanTransport {
	return &ChanTransport{
		workers: workers,
		// Four replies per lane of every device: a steady step never fills
		// it, so the backlog and its pump are the exception.
		replies: make(chan Reply, 4*NumStreams*len(workers)+16),
		stop:    make(chan struct{}),
	}
}

// call is the in-call path the master's dispatch loop and fence drain take:
// the worker handles req on the caller's goroutine and its reply is
// returned, never queued on Replies. It is unexported, so no other
// transport can opt in, and a wrapper around a ChanTransport keeps the
// channel path. Like Send it fails promptly on an unknown device or a
// closed transport.
func (t *ChanTransport) call(gpu int, req Request) (Reply, error) {
	if gpu < 0 || gpu >= len(t.workers) {
		return Reply{}, fmt.Errorf("runtime: no worker for gpu %d", gpu)
	}
	if t.closed.Load() {
		return Reply{}, fmt.Errorf("runtime: send to gpu %d: transport closed", gpu)
	}
	return t.workers[gpu].Handle(req), nil
}

// Send implements Transport. The worker handles the request before Send
// returns and the reply is queued for Replies; Send never blocks, so a
// backed-up fleet can never wedge the master or Close, and sending on a
// closed transport returns a prompt error.
func (t *ChanTransport) Send(gpu int, req Request) error {
	rep, err := t.call(gpu, req)
	if err != nil {
		return err
	}
	// A direct send must never overtake a backlogged reply, so it is tried
	// only while the backlog is empty.
	if !t.backlogged.Load() {
		select {
		case t.replies <- rep:
			return nil
		default:
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return fmt.Errorf("runtime: send to gpu %d: transport closed", gpu)
	}
	if !t.backlogged.Load() {
		t.backlogged.Store(true)
		t.wg.Add(1)
		go t.pump()
	}
	t.backlog = append(t.backlog, rep)
	return nil
}

// pump moves the backlog into the reply channel in order and exits once it
// is empty (or Close drops it).
func (t *ChanTransport) pump() {
	defer t.wg.Done()
	var batch []Reply
	for {
		t.mu.Lock()
		if len(t.backlog) == 0 {
			t.backlogged.Store(false)
			t.mu.Unlock()
			return
		}
		batch, t.backlog = t.backlog, batch[:0]
		t.mu.Unlock()
		for _, rep := range batch {
			select {
			case t.replies <- rep:
			case <-t.stop:
				return
			}
		}
	}
}

// Replies implements Transport.
func (t *ChanTransport) Replies() <-chan Reply { return t.replies }

// Close implements Transport: later Sends fail, backlogged replies are
// dropped, and Close returns once the pump, if any, has exited.
// Idempotent.
func (t *ChanTransport) Close() error {
	t.once.Do(func() {
		t.mu.Lock()
		t.closed.Store(true)
		t.backlog = nil
		t.mu.Unlock()
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

// Close implements Transport. It discards straggler replies so reader
// goroutines blocked on the reply channel can exit, then closes the reply
// channel once every reader has: a master still waiting on Replies sees the
// transport close instead of waiting for replies Close took or that will
// never come.
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
				// No reader is left to send on the channel.
				close(t.replies)
				return
			}
		}
	})
	return nil
}
