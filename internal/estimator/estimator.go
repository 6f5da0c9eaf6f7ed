// Package estimator implements the paper's lightweight runtime estimator
// (§5.1 and Algorithm 1): given an execution plan, it predicts the plan's
// iteration time — scheduling the augmented dataflow graph with a priority
// queue under the constraint that nodes on overlapping device meshes never
// run concurrently — and its peak per-device memory. The cost function
// multiplies the time by a large penalty when the plan would not fit
// (§5.2).
package estimator

import (
	"fmt"
	"sync"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/gpumodel"
	"realhf/internal/hardware"
	"realhf/internal/memory"
	"realhf/internal/parallel"
	"realhf/internal/realloc"
)

// OOMPenalty is the paper's α: plans that exceed device memory keep a finite
// but strongly discouraged cost so the MCMC chain can traverse them.
const OOMPenalty = 100.0

// Estimator predicts execution-plan cost from per-model cost tables.
type Estimator struct {
	HW hardware.Cluster
	// Costers maps each model role to its per-layer cost source — profiled
	// tables in the real pipeline, or the oracle directly for ground truth.
	Costers map[dfg.Role]gpumodel.ModelCoster
	Comm    gpumodel.Comm
	// OverlapComm mirrors the runtime engine's option of the same name:
	// when set, Algorithm 1's simulation gives every device a second lane
	// for communication nodes (core.Kind.CommLike), so parameter
	// reallocation, data transfer and offload overlap with computation
	// instead of serializing on the device. The default (false) keeps the
	// historical fully-serialized schedule, so search results and golden
	// plans are unaffected unless a caller opts in.
	OverlapComm bool
	// Calib layers profile feedback over the pure cost model: NodeDuration
	// multiplies each call node's analytic duration by the calibration's
	// per-call factor. nil (the default) is the identity — existing
	// estimates, searches and golden plans are byte-identical. Caches keyed
	// on estimates must fold CalibrationKey into their keys (search.CostCache
	// does), so calibrated problems never poison uncalibrated ones.
	Calib *Calibration
}

// New builds an estimator over the given per-role cost sources.
func New(hw hardware.Cluster, costers map[dfg.Role]gpumodel.ModelCoster) *Estimator {
	return &Estimator{HW: hw, Costers: costers, Comm: gpumodel.Comm{HW: hw}}
}

// NewOracle builds the ground-truth estimator for a model cast on hw: every
// role is costed by the analytic gpumodel oracle of its architecture, with
// decode kernels captured into CUDA graphs when cudaGraph is set. It is the
// estimator planners search with and the one the runtime executes.
func NewOracle(hw hardware.Cluster, models map[dfg.Role]core.ModelSpec, cudaGraph bool) *Estimator {
	costers := make(map[dfg.Role]gpumodel.ModelCoster, len(models))
	for role, ms := range models {
		o := gpumodel.NewOracle(hw, ms.Cfg)
		o.UseCUDAGraph = cudaGraph
		costers[role] = o
	}
	return New(hw, costers)
}

// CallSpecOf resolves the gpumodel.CallSpec of a dfg node under a plan.
func CallSpecOf(p *core.Plan, n *dfg.Node) (gpumodel.CallSpec, error) {
	a, ok := p.AssignmentOf(n)
	if !ok {
		return gpumodel.CallSpec{}, fmt.Errorf("estimator: call %q unassigned", n.Name)
	}
	ms, ok := p.Models[n.Role]
	if !ok {
		return gpumodel.CallSpec{}, fmt.Errorf("estimator: role %q has no model", n.Role)
	}
	return gpumodel.CallSpec{
		Cfg: ms.Cfg, IsCritic: ms.IsCritic, Type: n.Type, Work: n.Work,
		Strategy: a.Strategy, Mesh: a.Mesh,
	}, nil
}

// CallBreakdown estimates the duration and kernel-category breakdown of one
// call.
func (e *Estimator) CallBreakdown(p *core.Plan, n *dfg.Node) (gpumodel.Breakdown, error) {
	spec, err := CallSpecOf(p, n)
	if err != nil {
		return gpumodel.Breakdown{}, err
	}
	mc, ok := e.Costers[n.Role]
	if !ok {
		return gpumodel.Breakdown{}, fmt.Errorf("estimator: no coster for role %q", n.Role)
	}
	return gpumodel.AssembleCall(mc, e.Comm, spec), nil
}

// DurationFunc costs one augmented-graph node under a plan. Implementations
// must be pure with respect to the plan and node (no retained references, no
// mutation) so that Evaluate stays safe for concurrent use.
type DurationFunc func(p *core.Plan, n *core.AugNode) (float64, error)

// NodeDuration estimates one augmented-graph node. It is the estimator's
// default DurationFunc: a pure function of the plan and node that touches
// only immutable estimator state (cost tables, hardware model), so it is
// safe to call from concurrent search chains. Each chain's incremental
// EvalSession memoizes it for itself, keyed by NodeSig.
func (e *Estimator) NodeDuration(p *core.Plan, n *core.AugNode) (float64, error) {
	switch n.Kind {
	case core.KindCall:
		b, err := e.CallBreakdown(p, n.Call)
		if err != nil {
			return 0, err
		}
		return b.Total() * e.Calib.Factor(n.Call.Name), nil
	case core.KindParamRealloc:
		// The scratch is pooled because this method must stay safe for
		// concurrent chains.
		ms := p.Models[n.Role]
		cs := costScratchPool.Get().(*realloc.CostScratch)
		d := realloc.ParamsCost(cs, ms.Cfg.NumLayers, ms.Cfg.LayerParamBytes(),
			n.Src, n.Dst, e.HW)
		costScratchPool.Put(cs)
		return d, nil
	case core.KindDataTransfer:
		cs := costScratchPool.Get().(*realloc.CostScratch)
		d := realloc.DataCost(cs, n.Bytes, n.Src, n.Dst, e.HW)
		costScratchPool.Put(cs)
		return d, nil
	case core.KindOffload:
		perGPU := n.Bytes / int64(n.Dst.Mesh.NumGPUs())
		return e.Comm.OffloadTransfer(perGPU), nil
	}
	return 0, fmt.Errorf("estimator: unknown node kind %v", n.Kind)
}

// costScratchPool recycles the cost-only planners' working storage across
// NodeDuration calls from concurrent search chains.
var costScratchPool = sync.Pool{New: func() any { return new(realloc.CostScratch) }}

// ScheduledNode is one entry of the simulated timeline.
type ScheduledNode struct {
	Node     *core.AugNode
	Start    float64
	End      float64
	Duration float64
}

// Result carries the estimate of one plan.
type Result struct {
	// TimeCost is TimeCost(Gp): the simulated makespan of the augmented
	// graph (seconds).
	TimeCost float64
	// MaxMem is the peak bytes of the most loaded device.
	MaxMem int64
	// OOM reports whether MaxMem exceeds device capacity.
	OOM bool
	// Cost is the search objective: TimeCost, ×OOMPenalty when infeasible.
	Cost float64
	// Timeline is the full simulated schedule.
	Timeline []ScheduledNode
	// CallTimes maps call names to their (iteration-0) durations, for
	// Tables 2–5 rendering.
	CallTimes map[string]float64
}

// ModelStateUtilization is the paper's Fig. 17 heuristic metric: the
// essential model state of the experiment (weights, gradients and optimizer
// states, without data-parallel replication) as a fraction of total cluster
// HBM. It falls as devices are added at a fixed problem size; below ~60% the
// paper observes diminishing returns from further GPUs.
func ModelStateUtilization(p *core.Plan) float64 {
	var state int64
	for _, ms := range p.Models {
		if ms.Trainable {
			state += ms.Params() * 16 // bf16 weights+grads, fp32 master+moments
		} else {
			state += ms.Params() * 2
		}
	}
	total := float64(p.Cluster.GPU.MemoryBytes) * float64(p.Cluster.NumGPUs())
	return float64(state) / total
}

// readyQueue orders nodes by ReadyTime (Algorithm 1's priority queue). The
// sift operations replicate container/heap's up/down exactly — same strict
// comparisons, same swap order — so equal-ready ties pop in the identical
// order the historical heap produced, keeping golden plans byte-stable. The
// hand-rolled form exists to avoid container/heap's interface boxing, which
// allocated on every push and pop in the search hot loop.
type readyItem struct {
	id    int
	ready float64
}

type readyQueue []readyItem

func (q *readyQueue) push(it readyItem) {
	*q = append(*q, it)
	s := *q
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].ready < s[i].ready) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (q *readyQueue) pop() readyItem {
	s := *q
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].ready < s[j].ready {
			j = j2
		}
		if !(s[j].ready < s[i].ready) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*q = s[:n]
	return it
}

// Evaluate estimates a plan: it validates it, expands it into the augmented
// graph, runs Algorithm 1 to obtain TimeCost(Gp) and the memory ledger to
// obtain MaxMem(Gp), and combines them into the search cost — one pass of a
// one-shot EvalSession that also records the timeline. It is pure and
// race-free: concurrent Evaluate calls on distinct plan clones never
// interfere. The Result owns everything it points to.
func (e *Estimator) Evaluate(p *core.Plan) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &EvalSession{e: e, fallback: e.NodeDuration}
	var timeline []ScheduledNode
	pc, err := s.evaluate(p, &timeline)
	if err != nil {
		return nil, err
	}
	res := &Result{
		TimeCost:  pc.TimeCost,
		MaxMem:    pc.MaxMem,
		OOM:       pc.OOM,
		Cost:      pc.Cost,
		Timeline:  timeline,
		CallTimes: map[string]float64{},
	}
	for _, sn := range timeline {
		if sn.Node.Kind == core.KindCall && sn.Node.Call.Iter == 0 {
			res.CallTimes[sn.Node.Call.Name] = sn.Duration
		}
	}
	return res, nil
}

// simScratch holds the backing arrays of Algorithm 1 so repeated simulations
// (the incremental EvalSession's hot loop) reuse them instead of
// reallocating per evaluation. A scratch is single-goroutine state.
type simScratch struct {
	indeg   []int
	readyAt []float64
	lastEnd []float64
	q       readyQueue
}

// run is Algorithm 1 over nodes (indexed by dense node IDs): nodes become
// ready when all parents finish; the earliest-ready node starts at
// max(ready, last end time of any device lane it occupies); devices record
// the node's end. It returns the makespan and appends the full schedule to
// timeline when that is non-nil.
//
// With overlap disabled each device is a single lane. With overlap enabled
// each device has a compute lane and a communication lane: communication
// nodes (core.Kind.CommLike) only serialize against other communication on
// the same device, mirroring the runtime engine's per-worker streams.
func (sc *simScratch) run(nodes []*core.AugNode, durations []float64, numGPUs int, overlap bool, timeline *[]ScheduledNode) float64 {
	sc.indeg = growInts(sc.indeg, len(nodes))
	sc.readyAt = growFloats(sc.readyAt, len(nodes))
	for _, n := range nodes {
		// Node IDs are dense, so this writes every indeg slot; readyAt must
		// be cleared explicitly.
		sc.indeg[n.ID] = len(n.Parents)
		sc.readyAt[n.ID] = 0
	}
	lanes := 1
	if overlap {
		lanes = 2
	}
	sc.lastEnd = growFloats(sc.lastEnd, numGPUs*lanes)
	for i := range sc.lastEnd {
		sc.lastEnd[i] = 0
	}
	indeg, readyAt, lastEnd := sc.indeg, sc.readyAt, sc.lastEnd

	q := sc.q[:0]
	for _, n := range nodes {
		if indeg[n.ID] == 0 {
			q.push(readyItem{id: n.ID, ready: 0})
		}
	}
	var makespan float64
	for len(q) > 0 {
		it := q.pop()
		n := nodes[it.id]
		lane := 0
		if overlap && n.Kind.CommLike() {
			lane = 1
		}
		start := it.ready
		// core.AugBuilder bounds every mesh by the cluster, so the lane
		// indexing needs no clamp.
		for _, m := range n.Meshes {
			for gpu := m.First; gpu < m.First+m.Count; gpu++ {
				if lastEnd[gpu*lanes+lane] > start {
					start = lastEnd[gpu*lanes+lane]
				}
			}
		}
		end := start + durations[it.id]
		for _, m := range n.Meshes {
			for gpu := m.First; gpu < m.First+m.Count; gpu++ {
				lastEnd[gpu*lanes+lane] = end
			}
		}
		if timeline != nil {
			*timeline = append(*timeline, ScheduledNode{Node: n, Start: start, End: end, Duration: durations[it.id]})
		}
		if end > makespan {
			makespan = end
		}
		for _, c := range n.Children {
			if readyAt[c] < end {
				readyAt[c] = end
			}
			indeg[c]--
			if indeg[c] == 0 {
				q.push(readyItem{id: c, ready: readyAt[c]})
			}
		}
	}
	sc.q = q[:0]
	return makespan
}

// growInts and growFloats return s resized to n, reusing the backing array
// when it is large enough. Contents are unspecified; callers overwrite.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StaticBytes is the static term of the §5.1 memory ledger: the resting
// per-GPU bytes of a model held under strategy st — its bf16 weights unless
// offloaded to host memory, plus, when trainable, gradients and optimizer
// states, the optimizer sharded over DP.
func StaticBytes(ms core.ModelSpec, st parallel.Strategy, offloaded bool) int64 {
	return memory.Static(ms.Params(), st, memory.StaticOpts{
		Trainable:            ms.Trainable,
		ShardOptimizerOverDP: true,
		OffloadParams:        offloaded,
	})
}

// addStatic adds each role's StaticBytes at its home assignment to every
// device of the home mesh. It is the one static accumulation: the session's
// MaxMem and the runtime's worker initialization (StaticPerGPU) both run it.
func addStatic(static []int64, p *core.Plan) {
	for _, h := range p.Graph.Homes() {
		home, ok := p.Assign[h.Name]
		if !ok {
			continue
		}
		b := StaticBytes(p.Models[h.Role], home.Strategy, p.RoleOffloaded(h.Role))
		for gpu := home.Mesh.First; gpu < home.Mesh.First+home.Mesh.Count; gpu++ {
			static[gpu] += b
		}
	}
}

// StaticPerGPU returns each device's resting memory: the static footprint of
// every model homed on it, what the runtime engine initializes its workers
// with.
func StaticPerGPU(p *core.Plan) []int64 {
	static := make([]int64, p.Cluster.NumGPUs())
	addStatic(static, p)
	return static
}

// CallActiveBytes returns the transient per-GPU bytes of one call,
// discounting weights already resident in the role's static home allocation.
// It is the active term of the ledger, read by the session's MaxMem and by
// the runtime's compiled request allocations.
func CallActiveBytes(p *core.Plan, node *dfg.Node) int64 {
	spec, err := CallSpecOf(p, node)
	if err != nil {
		return 0
	}
	act := memory.Active(spec)
	a := p.Assign[node.Name]
	home, _ := p.HomeOf(node.Role)
	// The discount applies only when the call reuses the device-resident home
	// copy: an offloaded call sources its weights from host memory, so the
	// working copy is genuinely extra bytes even at home.
	if a.Equal(home) && !a.Offload {
		ms := p.Models[node.Role]
		shard := memory.ParamShardBytes(ms.Params(), a.Strategy)
		if a.Strategy.ZeRO3 {
			shard = ms.Params() / int64(a.Strategy.DP) * 2
		}
		act -= shard
		if act < 0 {
			act = 0
		}
	}
	return act
}

// Throughput converts a plan's iteration FLOPs and estimated time into the
// paper's PFLOP/s metric.
func Throughput(p *core.Plan, timeCost float64) float64 {
	if timeCost <= 0 {
		return 0
	}
	var flops float64
	for _, n := range p.Graph.Nodes {
		spec, err := CallSpecOf(p, n)
		if err != nil {
			continue
		}
		flops += gpumodel.CallFLOPs(spec)
	}
	return flops / timeCost / 1e15
}
