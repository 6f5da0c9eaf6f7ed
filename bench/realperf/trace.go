package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records wall-clock spans around the calls the benchmark makes
// into the program's layers: name, start, end, parent and the id of the
// operation (request, solve or training step) they belong to. Span names
// are "<layer>.<call>"; the operation's own span is "op" (layer "bench").
//
// Nothing inside the program is instrumented. Where a layer's work happens
// out of the benchmark's reach (inside the server's handler, inside a
// Trainer step), the traced run replays that layer's public call on the
// operation's own input right after the real call, as a sibling span. The
// replays cost time, so the traced run reports its own end-to-end numbers
// and the gap to the untraced run is the tracing overhead.
//
// Every finished operation folds into running per-span and per-layer
// totals; only the first keepOps operations keep their spans for the
// Chrome trace, so memory stays flat however long the run is.
type tracer struct {
	epoch   time.Time
	keepOps int
	nextID  atomic.Int64

	mu    sync.Mutex
	open  map[int64]*op // operation id -> in-flight operation
	kept  []span
	ops   int
	calls map[string]*acc  // span name -> durations
	self  map[string]int64 // layer -> summed self time (ns)
}

type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     int64 // ns since the tracer's epoch
	Tid            int
}

// acc accumulates span durations.
type acc struct {
	n   int
	sum int64
}

func (a *acc) mean() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}

func newTracer(keepOps int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		keepOps: keepOps,
		open:    map[int64]*op{},
		calls:   map[string]*acc{},
		self:    map[string]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// op is one traced operation. A nil *op records nothing, so untraced runs
// pass nil through the same code.
type op struct {
	t    *tracer
	id   int64
	root int64
	tid  int

	mu    sync.Mutex
	spans []span
	// handled delivers, per round-trip span, the end time of the server
	// handler span under it.
	handled map[int64]chan int64
}

// begin opens an operation. tid is the Chrome-trace lane (the client).
func (t *tracer) begin(tid int) *op {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	o := &op{t: t, id: id, tid: tid, handled: map[int64]chan int64{}}
	o.root = o.start(0, "op")
	t.mu.Lock()
	t.open[id] = o
	t.mu.Unlock()
	return o
}

// start opens a span under parent (0 = the operation's root) and returns
// its id.
func (o *op) start(parent int64, name string) int64 {
	if o == nil {
		return 0
	}
	if parent == 0 {
		parent = o.root
	}
	id := o.t.nextID.Add(1)
	s := span{ID: id, Parent: parent, Op: o.id, Name: name, Start: o.t.now(), Tid: o.tid}
	if name == "op" {
		s.Parent = 0
	}
	o.mu.Lock()
	o.spans = append(o.spans, s)
	o.mu.Unlock()
	return id
}

// end closes span id; rename, when non-empty, replaces its name (a Trainer
// step is named for whether it replanned, which is known only once it
// returns).
func (o *op) end(id int64, rename string) {
	if o == nil {
		return
	}
	now := o.t.now()
	o.mu.Lock()
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i].ID == id {
			o.spans[i].End = now
			if rename != "" {
				o.spans[i].Name = rename
			}
			break
		}
	}
	o.mu.Unlock()
}

// record adds a finished span.
func (o *op) record(parent int64, name string, start, end int64, tid int) {
	o.mu.Lock()
	o.spans = append(o.spans, span{ID: o.t.nextID.Add(1), Parent: parent, Op: o.id, Name: name, Start: start, End: end, Tid: tid})
	o.mu.Unlock()
}

// time runs fn inside a span under the root.
func (o *op) time(name string, fn func()) {
	id := o.start(0, name)
	fn()
	o.end(id, "")
}

// finish closes the operation and folds its spans into the totals.
func (o *op) finish() {
	if o == nil {
		return
	}
	o.end(o.root, "")
	t := o.t
	o.mu.Lock()
	spans := o.spans
	o.mu.Unlock()
	self := selfTimes(spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.open, o.id)
	t.ops++
	for i, s := range spans {
		a := t.calls[s.Name]
		if a == nil {
			a = &acc{}
			t.calls[s.Name] = a
		}
		a.n++
		a.sum += s.End - s.Start
		t.self[layerOf(s.Name)] += self[i]
	}
	if t.ops <= t.keepOps {
		t.kept = append(t.kept, spans...)
	}
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover.
func selfTimes(spans []span) []int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	first := true
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if first || a > curHi {
			if !first {
				total += curHi - curLo
			}
			curLo, curHi, first = a, b, false
		} else if b > curHi {
			curHi = b
		}
	}
	if !first {
		total += curHi - curLo
	}
	return total
}

// layerMetrics fills every span-backed and self-time per-layer metric.
func (t *tracer) layerMetrics(out map[string]value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range metrics {
		if m.Kind == perLayer && m.span != "" {
			out[m.Name] = value(t.calls[m.span].mean() * m.perNs)
		}
	}
	for _, l := range layers {
		v := 0.0
		if t.ops > 0 {
			v = float64(t.self[l]) / float64(t.ops) * us
		}
		out[l+".self_us"] = value(v)
	}
}

// --- serve-side spans ---

// spanHeader carries "<operation id>.<parent span id>" from the client to
// the handler wrapper, so the server-side span joins the request's tree.
const spanHeader = "X-Realperf-Span"

type spanCtxKey struct{}

// spanRef is what the client side of a traced request puts in its context.
type spanRef struct{ op, parent int64 }

// headerTransport stamps spanHeader from the request context.
type headerTransport struct{ base http.RoundTripper }

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return h.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(ref.op, 10)+"."+strconv.FormatInt(ref.parent, 10))
	return h.base.RoundTrip(r)
}

// serverLane offsets the Chrome-trace lane of server-side spans from the
// client lanes.
const serverLane = 100

// handler wraps the server's handler in a "serve.handler" span.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		opID, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			return
		}
		t.mu.Lock()
		o := t.open[opID]
		t.mu.Unlock()
		if o == nil {
			return
		}
		o.record(parent, "serve.handler", start, end, serverLane+o.tid)
		o.mu.Lock()
		ch := o.handled[parent]
		o.mu.Unlock()
		if ch != nil {
			ch <- end
		}
	})
}

// startRoundTrip opens a "serve.rtt" span and returns it with the context
// that carries it to the server.
func (o *op) startRoundTrip(ctx context.Context) (int64, context.Context) {
	if o == nil {
		return 0, ctx
	}
	id := o.start(0, "serve.rtt")
	o.mu.Lock()
	o.handled[id] = make(chan int64, 1)
	o.mu.Unlock()
	return id, context.WithValue(ctx, spanCtxKey{}, spanRef{op: o.id, parent: id})
}

func parseSpanHeader(h string) (opID, parent int64, ok bool) {
	a, b, found := strings.Cut(h, ".")
	if !found {
		return 0, 0, false
	}
	x, err1 := strconv.ParseInt(a, 10, 64)
	y, err2 := strconv.ParseInt(b, 10, 64)
	return x, y, err1 == nil && err2 == nil
}

// endRoundTrip closes a round-trip span. After a successful request it
// waits for the server's handler span and ends no earlier than it: a
// response can be fully decoded while the handler is still returning (the
// last bytes leave on the handler's final write), so without the wait the
// handler span could poke out of its parent by a few microseconds. A failed
// request may never have reached the handler, so it does not wait.
func (o *op) endRoundTrip(id int64, ok bool) {
	if o == nil {
		return
	}
	now := o.t.now()
	o.mu.Lock()
	ch := o.handled[id]
	o.mu.Unlock()
	handlerEnd := now
	if ok {
		handlerEnd = <-ch
	}
	o.mu.Lock()
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i].ID == id {
			o.spans[i].End = max(now, handlerEnd)
			break
		}
	}
	o.mu.Unlock()
}

// --- Chrome trace ---

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes the kept spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, with its id, parent and
// operation id in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	tr := chromeTrace{DisplayTimeUnit: "ns"}
	for _, s := range t.kept {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
