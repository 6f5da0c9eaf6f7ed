package runtime

import (
	"fmt"
	"sync"
)

// ErrWorkerLost reports a dead or unresponsive worker, identified by its
// GPU index. It is the typed failure the fence protocol (WorkerPool.Reset)
// and the master's dispatch loop surface instead of hanging when a worker
// stops answering: callers recover it with errors.As and decide whether to
// shrink onto the survivors (realhf.Trainer does) or abort. The public API
// additionally wraps it in the realhf.ErrWorkerLost sentinel so errors.Is
// dispatch — and the serve taxonomy built on it — works across the
// boundary.
type ErrWorkerLost struct {
	// GPU is the lost device's index. When several workers are
	// unaccounted for at detection time, the smallest index is reported;
	// recovery proceeds one loss at a time.
	GPU int
}

func (e *ErrWorkerLost) Error() string {
	return fmt.Sprintf("worker gpu %d lost", e.GPU)
}

// FaultKind classifies an injected worker failure.
type FaultKind int

const (
	// FaultKill simulates a crashed worker process: every subsequent Send
	// to the device fails with *ErrWorkerLost, and replies already in
	// flight from it are discarded (a dead process answers nothing).
	FaultKill FaultKind = iota
	// FaultDrop simulates a wedged worker: Sends are silently swallowed,
	// so the worker stops making progress without any error — the failure
	// mode only the worker timeout can detect.
	FaultDrop
	// FaultDelay simulates a stalled network path: requests are delivered
	// but the worker's replies are withheld until Heal releases them.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	}
	return "fault?"
}

// FaultyTransport wraps any Transport with deterministic fault injection —
// the chaos hook the resilience tests (and realrun -kill-worker-at) use to
// kill, wedge or stall a single worker mid-iteration without touching the
// inner transport's machinery. Faults are keyed by GPU index; devices
// without an active fault pass through untouched, and per-worker FIFO
// order is preserved for them (a single pump goroutine forwards replies in
// arrival order).
type FaultyTransport struct {
	inner   Transport
	replies chan Reply
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	mu      sync.Mutex
	faults  map[int]FaultKind
	armed   map[int]*armedFault
	delayed []Reply
}

// armedFault is a scheduled injection: kind trips on the sends-th
// subsequent Send to the device.
type armedFault struct {
	sends int
	kind  FaultKind
}

// NewFaultyTransport wraps inner. The wrapper owns inner's teardown:
// closing the FaultyTransport closes the inner transport too.
func NewFaultyTransport(inner Transport) *FaultyTransport {
	f := &FaultyTransport{
		inner:   inner,
		replies: make(chan Reply, 256),
		stop:    make(chan struct{}),
		faults:  map[int]FaultKind{},
		armed:   map[int]*armedFault{},
	}
	f.wg.Add(1)
	go f.pump()
	return f
}

// pump forwards inner replies to the outer channel, filtering by the fault
// state of the answering device: killed devices' replies are discarded,
// delayed devices' replies are parked until Heal. It returns when the inner
// reply channel closes (a closed TCP fleet), since nothing more can come.
func (f *FaultyTransport) pump() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case rep, ok := <-f.inner.Replies():
			if !ok {
				return
			}
			f.mu.Lock()
			kind, faulted := f.faults[rep.GPU]
			if faulted && kind == FaultDelay {
				f.delayed = append(f.delayed, rep)
				f.mu.Unlock()
				continue
			}
			f.mu.Unlock()
			if faulted && kind == FaultKill {
				continue
			}
			select {
			case f.replies <- rep:
			case <-f.stop:
				return
			}
		}
	}
}

// Fail activates a fault on the device immediately.
func (f *FaultyTransport) Fail(gpu int, kind FaultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.armed, gpu)
	f.faults[gpu] = kind
}

// InjectAfter arms a fault that trips on the sends-th subsequent Send to
// the device (sends <= 1 trips on the very next one) — the way to lose a
// given worker mid-iteration. Which of the device's nodes the fault
// interrupts can vary with reply arrival order; the lost device cannot.
func (f *FaultyTransport) InjectAfter(gpu, sends int, kind FaultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed[gpu] = &armedFault{sends: sends, kind: kind}
}

// Heal clears the device's fault (and any armed injection). Replies a
// FaultDelay withheld are released in their original arrival order. Heal
// is meant for quiet points — between iterations, after a failed Reset —
// where no fresh replies from the device race the released backlog.
func (f *FaultyTransport) Heal(gpu int) {
	f.mu.Lock()
	delete(f.faults, gpu)
	delete(f.armed, gpu)
	var keep, flush []Reply
	for _, rep := range f.delayed {
		if rep.GPU == gpu {
			flush = append(flush, rep)
		} else {
			keep = append(keep, rep)
		}
	}
	f.delayed = keep
	f.mu.Unlock()
	for _, rep := range flush {
		select {
		case f.replies <- rep:
		case <-f.stop:
			return
		}
	}
}

// Send implements Transport. A killed device fails the send with
// *ErrWorkerLost; a dropped device swallows it silently; a delayed device
// delivers it (only the replies stall).
func (f *FaultyTransport) Send(gpu int, req Request) error {
	f.mu.Lock()
	if a, ok := f.armed[gpu]; ok {
		a.sends--
		if a.sends <= 0 {
			delete(f.armed, gpu)
			f.faults[gpu] = a.kind
		}
	}
	kind, faulted := f.faults[gpu]
	f.mu.Unlock()
	if faulted {
		switch kind {
		case FaultKill:
			return &ErrWorkerLost{GPU: gpu}
		case FaultDrop:
			return nil
		}
	}
	return f.inner.Send(gpu, req)
}

// Replies implements Transport.
func (f *FaultyTransport) Replies() <-chan Reply { return f.replies }

// Close implements Transport: it stops the pump and closes the inner
// transport. Idempotent.
func (f *FaultyTransport) Close() error {
	var err error
	f.once.Do(func() {
		close(f.stop)
		err = f.inner.Close()
		f.wg.Wait()
	})
	return err
}
