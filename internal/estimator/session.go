package estimator

import (
	"fmt"
	"math"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/mesh"
)

// PlanCost is the scalar slice of a Result that plan search needs to accept
// or reject a proposal: the simulated makespan, the peak device memory, and
// the OOM-penalized search objective. Unlike Result it carries no timeline
// or per-call breakdown, so it is cheap to compute, copy and cache by value.
type PlanCost struct {
	// TimeCost is TimeCost(Gp): the simulated makespan (seconds).
	TimeCost float64
	// MaxMem is the peak bytes of the most loaded device.
	MaxMem int64
	// OOM reports whether MaxMem exceeds device capacity.
	OOM bool
	// Cost is the search objective: TimeCost, ×OOMPenalty·overflow when
	// infeasible — bit-identical to Result.Cost.
	Cost float64
}

// CostOf extracts the PlanCost summary of a full Result.
func CostOf(r *Result) PlanCost {
	return PlanCost{TimeCost: r.TimeCost, MaxMem: r.MaxMem, OOM: r.OOM, Cost: r.Cost}
}

// SessionStats reports an EvalSession's incremental-evaluation counters.
type SessionStats struct {
	// Evals counts Evaluate calls answered.
	Evals int64
	// NodeLookups counts augmented-graph node costings across all evals,
	// and the call costings of Bound.
	NodeLookups int64
	// NodeRecosts counts lookups that missed the session-local duration memo
	// and had to be recomputed through the session's fallback. After a
	// single-call mutation only the nodes whose inputs changed recost.
	NodeRecosts int64
}

// NodeSig is the full duration signature of one augmented-graph node: every
// input the node's duration depends on, in one comparable struct. Call nodes
// carry their call name and layout shape; transfer-style nodes carry their
// kind, role, payload bytes and canonical endpoints. Within one problem,
// equal signatures imply equal uncalibrated durations, so the session's slot
// cache and duration memo key on it.
type NodeSig struct {
	// name is the call name of a call node and the payload's role (empty
	// for data transfers) of a transfer-style node.
	name     string
	bytes    int64
	src, dst sigEnd
	kind     uint8
}

// sigEnd packs an assignment's cost inputs into 16-bit fields, keeping
// NodeSig to 64 bytes: the slot cache compares one per node per evaluation
// and the session memo hashes one on every slot miss, and each session's
// memo holds one per distinct node it has costed. The mesh row size is
// cluster geometry, fixed within a problem, and Offload never changes a
// node's duration: it decides which nodes exist, not what they cost.
type sigEnd struct {
	first, count, dp, tp, pp, mb uint16
	zero3                        bool
}

// endOf packs a with its mesh's first GPU moved down by shift; ok is false
// when a field does not fit 16 bits.
func endOf(a core.Assignment, shift int) (sigEnd, bool) {
	st := a.Strategy
	v := [...]int{a.Mesh.First - shift, a.Mesh.Count, st.DP, st.TP, st.PP, st.MicroBatches}
	for _, x := range v {
		if x < 0 || x > math.MaxUint16 {
			return sigEnd{}, false
		}
	}
	return sigEnd{
		first: uint16(v[0]), count: uint16(v[1]),
		dp: uint16(v[2]), tp: uint16(v[3]), pp: uint16(v[4]), mb: uint16(v[5]),
		zero3: st.ZeRO3,
	}, true
}

// SigOf assembles a node's duration signature under a plan. Within one
// problem a call name fixes (role, type, workload), and a call's duration
// is iteration-independent, so iterations share signatures. ok is false for
// an assignment past 65,535 GPUs or micro-batches, which no signature
// represents: such a node must be costed directly, never memoized.
//
// Signatures key positions only where the cost reads them. Every legal mesh
// is aligned (§4), so a call's cost reads its mesh only through the GPU
// count: call signatures drop the mesh's first GPU. An offload reload is
// its per-GPU bytes over the PCIe link, so its signature keeps only the
// payload and the GPU count.
//
// Transfer-style endpoints are canonicalized: communication schedules
// (realloc.ParamsCost, realloc.DataCost) are pure functions of the endpoint
// meshes and the DP/TP/PP grid — MicroBatches and ZeRO3 never enter them.
// Dropping them collapses the endpoint-pair space by the number of
// micro-batch variants per layout, which is what lets the memos saturate
// during a search. The schedules also read GPUs only through equality and
// same-node tests, so shifting both endpoints by whole nodes shifts the
// schedule and leaves its cost bit-identical: both endpoints move down by
// the whole-node offset of the lower one.
func SigOf(p *core.Plan, n *core.AugNode) (NodeSig, bool) {
	switch n.Kind {
	case core.KindCall:
		a := p.Assign[n.Call.Name]
		src, ok := endOf(a, a.Mesh.First)
		return NodeSig{kind: uint8(core.KindCall), name: n.Call.Name, src: src}, ok
	case core.KindOffload:
		dst, ok := endOf(n.Dst, n.Dst.Mesh.First)
		return NodeSig{kind: uint8(n.Kind), name: string(n.Role), bytes: n.Bytes, dst: sigEnd{count: dst.count}}, ok
	}
	shift := min(n.Src.Mesh.First, n.Dst.Mesh.First)
	if m := n.Src.Mesh.M; m > 0 {
		shift -= shift % m
	}
	src, okSrc := endOf(n.Src, shift)
	dst, okDst := endOf(n.Dst, shift)
	src.mb, src.zero3, dst.mb, dst.zero3 = 0, false, 0, false
	return NodeSig{kind: uint8(n.Kind), name: string(n.Role), bytes: n.Bytes, src: src, dst: dst}, okSrc && okDst
}

// slot is one arena slot's last costing: between consecutive evaluations of
// single-call mutations most slots rebuild with identical signatures, so the
// common case is one struct compare per node instead of a memo-map lookup.
// The signature alone determines the value even when a structural change
// shifts arena slots; a stale slot simply misses and falls back to the memo.
type slot struct {
	sig NodeSig
	dur float64
	ok  bool
}

// activeSigEntry caches one call's last active-bytes computation for the
// maxMem fast path. The footprint depends on the call (fixed per graph), its
// assignment, and its role's home (resident weights are discounted at home).
type activeSigEntry struct {
	a, home core.Assignment
	act     int64
	ok      bool
}

// EvalSession is the estimator's one evaluator: it expands a plan with a
// core.AugBuilder, costs every node, runs Algorithm 1 and the memory ledger.
// Estimator.Evaluate is one pass of a one-shot session that also records
// the timeline. A session from NewSession is the incremental form the
// search rides, re-using everything a single-call mutation cannot have
// changed:
//
//   - the builder's prepared topology and node arena, so a rebuild
//     allocates nothing;
//   - per-slot signatures and a duration memo keyed by NodeSig, so a
//     proposal that moves one RPC only recosts the mutated call and its
//     induced realloc/transfer neighbors;
//   - each call's last active-memory term, reused while its assignment and
//     its role's home are unchanged;
//   - the Algorithm 1 scratch buffers.
//
// Bound is the session's cheap pre-test: a lower bound on a plan's cost
// from its call nodes alone, through the same slot cache and memo.
//
// A session is single-goroutine state: each search chain owns one, and
// concurrent chains share only their read-only Estimator, never a memo.
//
// Contract: evaluated plans must assign every call an individually legal
// (mesh, strategy) — the solver candidate sets guarantee this — because the
// session skips the per-call Plan.Validate that Estimator.Evaluate runs.
// Mesh/cluster bounds are still checked, since the simulation indexes
// per-device lanes. Callers outside the solver loop (warm starts,
// caller-provided seeds) must Plan.Validate first.
type EvalSession struct {
	e        *Estimator
	fallback DurationFunc

	// Prepared per dataflow graph.
	b       *core.AugBuilder
	numGPUs int

	durations []float64
	sim       simScratch
	static    []int64
	peak      []int64

	// Incremental state; all nil in a one-shot session, which costs every
	// node and memory term directly and so allocates no memo.
	slots     []slot
	durMemo   map[NodeSig]float64
	activeSig []activeSigEntry // by dfg.Graph.Calls index

	// Bound scratch: each call's duration and mesh by topological position,
	// the longest call-only path ending at each call by dfg node ID, and the
	// call node costed through the slot cache.
	boundDur  []float64
	boundMesh []mesh.Mesh
	boundEnd  []float64
	callNode  core.AugNode

	stats SessionStats
}

// NewSession builds an incremental evaluation session over the estimator.
// fallback, when non-nil, costs the nodes that miss the session's own memo
// in place of the estimator's NodeDuration (nil). No in-tree caller passes
// one: every search chain holds NewSession(nil). The parameter stays
// because the benchmark harness (bench/realperf) calls NewSession(nil) and
// compiles against this signature.
func (e *Estimator) NewSession(fallback DurationFunc) *EvalSession {
	if fallback == nil {
		fallback = e.NodeDuration
	}
	// The memo is pre-sized for a search-length solve: growing it from
	// empty re-hashes thousands of large value-type keys per solve, which
	// showed up as double-digit percentages of search profiles.
	return &EvalSession{
		e:        e,
		fallback: fallback,
		durMemo:  make(map[NodeSig]float64, 2048),
	}
}

// Stats returns the session's counters.
func (s *EvalSession) Stats() SessionStats { return s.stats }

// Evaluate scores the plan incrementally. The returned PlanCost matches
// Estimator.Evaluate's Result field-for-field, bit for bit.
func (s *EvalSession) Evaluate(p *core.Plan) (PlanCost, error) {
	return s.evaluate(p, nil)
}

// evaluate is one pass over the plan; when timeline is non-nil the
// simulated schedule is recorded into it.
func (s *EvalSession) evaluate(p *core.Plan, timeline *[]ScheduledNode) (PlanCost, error) {
	if err := s.prepare(p); err != nil {
		return PlanCost{}, err
	}
	g, err := s.b.Build(p)
	if err != nil {
		return PlanCost{}, err
	}
	if err := s.checkMeshes(p); err != nil {
		return PlanCost{}, err
	}
	nodes := g.Nodes
	s.durations = growFloats(s.durations, len(nodes))
	for i, n := range nodes {
		d, err := s.duration(i, p, n)
		if err != nil {
			return PlanCost{}, err
		}
		s.durations[i] = d
	}
	if timeline != nil {
		*timeline = make([]ScheduledNode, 0, len(nodes))
	}
	makespan := s.sim.run(nodes, s.durations, s.numGPUs, s.e.OverlapComm, timeline)
	maxMem := s.maxMem(p)
	pc := PlanCost{TimeCost: makespan, MaxMem: maxMem, OOM: maxMem > s.e.HW.GPU.MemoryBytes}
	pc.Cost = pc.TimeCost
	if pc.OOM {
		// Scale the penalty by the overflow so the chain keeps a gradient
		// towards feasibility even deep inside the infeasible region.
		over := float64(pc.MaxMem) / float64(s.e.HW.GPU.MemoryBytes)
		pc.Cost *= OOMPenalty * over
	}
	s.stats.Evals++
	return pc, nil
}

// checkMeshes fails when a call's mesh leaves the cluster: Algorithm 1 and
// the ledger index per-device lanes by global GPU, so such a plan must error
// rather than under-cost. Every transfer endpoint is some call's assignment,
// so checking the calls bounds every node.
func (s *EvalSession) checkMeshes(p *core.Plan) error {
	for _, n := range p.Graph.Calls() {
		if m := p.Assign[n.Name].Mesh; m.First < 0 || m.Count < 0 || m.First > s.numGPUs-m.Count {
			return fmt.Errorf("estimator: call %q occupies GPUs [%d,%d) outside the %d-GPU cluster",
				n.Name, m.First, m.First+m.Count, s.numGPUs)
		}
	}
	return nil
}

// Bound returns a lower bound on Evaluate(p).TimeCost, and so on its Cost,
// from the plan's call nodes alone: it builds no augmented graph, prices no
// realloc, transfer or offload node, runs no simulation and no memory
// ledger. The bound is the larger of two terms, each a bound on any
// schedule Algorithm 1 produces:
//
//   - the longest dependency path through call nodes, since a transfer-style
//     node between two calls can only delay the later one;
//   - the busiest device's summed call time, since the calls on one device
//     run one after another (on its compute lane under OverlapComm).
//
// The path term adds along the path exactly as the simulation does, so it
// needs no margin. The device term sums in topological order while the
// simulation accumulates in schedule order, so it is shrunk by the
// worst-case rounding error of either sum. Cost is TimeCost or a penalty
// multiple of it, so the bound holds for Cost too.
//
// Call durations come from the slot cache and memo Evaluate uses: arena
// slot i holds topological call i in every Build, so an Evaluate that
// follows finds them cached. Bound fails wherever Evaluate fails, with the
// same error: an unassigned call, a role without a model or coster, or a
// mesh outside the cluster.
func (s *EvalSession) Bound(p *core.Plan) (float64, error) {
	if err := s.prepare(p); err != nil {
		return 0, err
	}
	topo := s.b.Topo()
	n := len(topo)
	s.boundDur = growFloats(s.boundDur, n)
	s.boundEnd = growFloats(s.boundEnd, n)
	if cap(s.boundMesh) < n {
		s.boundMesh = make([]mesh.Mesh, n)
	}
	s.boundMesh = s.boundMesh[:n]
	for i, d := range topo {
		a, err := p.CallAssignment(d)
		if err != nil {
			return 0, err
		}
		s.boundMesh[i] = a.Mesh
	}
	if err := s.checkMeshes(p); err != nil {
		return 0, err
	}

	var path float64
	cn := &s.callNode
	cn.Kind = core.KindCall
	for i, d := range topo {
		cn.ID, cn.Call, cn.Role = i, d, d.Role
		cn.Meshes = append(cn.Meshes[:0], s.boundMesh[i])
		dur, err := s.duration(i, p, cn)
		if err != nil {
			return 0, err
		}
		s.boundDur[i] = dur
		var start float64
		for _, par := range s.b.Parents(d) {
			start = max(start, s.boundEnd[par.ID])
		}
		end := start + dur
		s.boundEnd[d.ID] = end
		path = max(path, end)
	}

	// A device's load is a sum of interval indicators over the call meshes,
	// so it peaks at some call's first GPU: O(calls²), no per-GPU pass.
	var busiest float64
	for _, m := range s.boundMesh {
		var load float64
		for j, o := range s.boundMesh {
			if o.First <= m.First && m.First < o.First+o.Count {
				load += s.boundDur[j]
			}
		}
		busiest = max(busiest, load)
	}
	// A recursive sum of at most n nonnegative terms lies within about
	// (n-1)·2⁻⁵³ relative of the exact sum in any order, so shrinking by
	// (2n+4)·2⁻⁵³ covers this sum's error, the schedule-order sum's error
	// and the product's own rounding.
	busiest *= 1 - float64(2*n+4)*0x1p-53
	return max(path, busiest), nil
}

// prepare (re)binds the session to the plan's dataflow graph with a fresh
// augmented-graph builder.
func (s *EvalSession) prepare(p *core.Plan) error {
	if s.b != nil && s.b.Graph() == p.Graph {
		return nil
	}
	b, err := core.NewAugBuilder(p.Graph)
	if err != nil {
		return err
	}
	s.b = b
	s.numGPUs = s.e.HW.NumGPUs()
	if s.durMemo == nil {
		return nil
	}
	// The memos key on call names, which only mean the same thing within
	// one graph, so a graph change drops them with the slot cache.
	s.activeSig = make([]activeSigEntry, len(p.Graph.Calls()))
	clear(s.durMemo)
	clear(s.slots)
	return nil
}

// duration costs arena slot i: from the slot cache when its signature is
// unchanged, else from the session memo, else through the fallback. A
// one-shot session goes straight to the fallback.
func (s *EvalSession) duration(i int, p *core.Plan, n *core.AugNode) (float64, error) {
	s.stats.NodeLookups++
	if s.durMemo == nil {
		s.stats.NodeRecosts++
		return s.fallback(p, n)
	}
	if i == len(s.slots) {
		s.slots = append(s.slots, slot{})
	}
	sig, ok := SigOf(p, n)
	if !ok {
		s.stats.NodeRecosts++
		return s.fallback(p, n)
	}
	sl := &s.slots[i]
	if sl.ok && sl.sig == sig {
		return sl.dur, nil
	}
	d, ok := s.durMemo[sig]
	if !ok {
		s.stats.NodeRecosts++
		var err error
		if d, err = s.fallback(p, n); err != nil {
			return 0, err
		}
		s.durMemo[sig] = d
	}
	*sl = slot{sig: sig, dur: d, ok: true}
	return d, nil
}

// maxMem computes MaxMem(Gp) from the one ledger: per device, the resting
// memory of every model homed there (addStatic) plus the largest active
// footprint (CallActiveBytes) among the calls scheduled on it.
func (s *EvalSession) maxMem(p *core.Plan) int64 {
	n := s.numGPUs
	if cap(s.static) < n {
		s.static = make([]int64, n)
		s.peak = make([]int64, n)
	}
	static, peak := s.static[:n], s.peak[:n]
	clear(static)
	clear(peak)
	addStatic(static, p)
	for i, node := range p.Graph.Calls() {
		a := p.Assign[node.Name]
		act := s.activeBytes(i, p, node, a)
		for gpu := a.Mesh.First; gpu < a.Mesh.First+a.Mesh.Count; gpu++ {
			if act > peak[gpu] {
				peak[gpu] = act
			}
		}
	}

	var maxMem int64
	for gpu := 0; gpu < n; gpu++ {
		if m := static[gpu] + peak[gpu]; m > maxMem {
			maxMem = m
		}
	}
	return maxMem
}

// activeBytes is CallActiveBytes of the i-th distinct call; an incremental
// session reuses the call's last value while its assignment and its role's
// home are unchanged.
func (s *EvalSession) activeBytes(i int, p *core.Plan, node *dfg.Node, a core.Assignment) int64 {
	if s.activeSig == nil {
		return CallActiveBytes(p, node)
	}
	home := p.Assign[s.b.Home(node).Name]
	sg := &s.activeSig[i]
	if !sg.ok || sg.a != a || sg.home != home {
		*sg = activeSigEntry{a: a, home: home, act: CallActiveBytes(p, node), ok: true}
	}
	return sg.act
}
