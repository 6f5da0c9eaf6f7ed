package search

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/hardware"
	"realhf/internal/memory"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// --- candidate space construction, shared by every solver ---
//
// Every legal mesh is aligned (§4), so a call's cost and legality depend on
// its mesh only through the GPU count: the cost model sees the count, the
// node size and whether the mesh spans nodes, and alignment fixes the last
// by the count. The space is therefore built by mesh shape. Each call keeps
// the legal options of each mesh size once, laid over the run of same-size
// meshes in mesh.Enumerate order, and an index map yields the i-th
// candidate of the mesh-major order without storing it.

// meshRun is a run of same-size meshes, consecutive in mesh.Enumerate order
// once pruned, whose first GPUs step by a constant stride.
type meshRun struct {
	first  int // first GPU of the run's first mesh
	stride int // GPUs between the first GPUs of consecutive meshes
	count  int // meshes in the run
	size   int // GPUs per mesh
}

// meshRuns groups the cluster's pruned mesh enumeration into runs. Each
// mesh size forms one run, so a cluster has one run per shape.
func meshRuns(c hardware.Cluster, lvl PruneLevel) []meshRun {
	// Sub-node sizes are below the node size and spans at most the node
	// count, which bounds the runs.
	runs := make([]meshRun, 0, c.GPUsPerNode+c.Nodes)
	for _, m := range mesh.Enumerate(c) {
		if lvl >= PruneModerate && m.Count > c.GPUsPerNode {
			span := m.Count / c.GPUsPerNode
			if span&(span-1) != 0 || m.FirstNode()%span != 0 {
				continue
			}
		}
		if n := len(runs); n > 0 {
			r := &runs[n-1]
			if r.size == m.Count && (r.count == 1 || m.First == r.first+r.count*r.stride) {
				if r.count == 1 {
					r.stride = m.First - r.first
				}
				r.count++
				continue
			}
		}
		runs = append(runs, meshRun{first: m.First, count: 1, size: m.Count})
	}
	return runs
}

// block lays one mesh run's options of a call over the run's meshes. The
// call's candidates [start, start+count·(hi-lo)) are the run's meshes in
// order, each with every option opts[lo:hi] in order: candidate start+j is
// option lo + j%(hi-lo) on mesh j/(hi-lo).
type block struct {
	lo, hi int // the options, as a range of cands.opts
	count  int // meshes in the run
	stride int // GPUs between consecutive meshes' first GPUs
	start  int // index of the block's first candidate
}

// cands is one call's candidate list. A shape-level list stores, per mesh
// size, the legal (strategy, micro-batch, offload) options once, as
// assignments on the size's first mesh. A shortlist is one block on one
// "mesh": its options are its candidates, each on its own mesh.
type cands struct {
	n      int               // candidates
	opts   []core.Assignment // every block's options, in block order
	blocks []block
}

// listOf holds a materialized candidate list as one block.
func listOf(list []core.Assignment) *cands {
	return &cands{n: len(list), opts: list, blocks: []block{{hi: len(list), count: 1}}}
}

// at returns candidate i: the i-th assignment of the per-mesh enumeration
// order (mesh-major, then strategy, micro-batch and offload).
func (c *cands) at(i int) core.Assignment {
	bs := c.blocks
	lo, hi := 0, len(bs)-1
	for lo < hi { // the last block starting at or before i
		mid := int(uint(lo+hi+1) >> 1)
		if bs[mid].start <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	b := &bs[lo]
	j, w := i-b.start, b.hi-b.lo
	a := c.opts[b.lo+j%w]
	a.Mesh.First += j / w * b.stride
	return a
}

// space is a solver's prepared move set: per-call candidates, the movable
// call names (sorted for determinism), and the joint-space size. full keeps
// every call's pre-shortlist space: the greedy seed minimizes over it (as
// the original engine did) even when sampling is shortlisted. cands mirrors
// the walk's candidates indexed by position in names, so the proposal loop
// draws candidates without a map lookup per step.
type space struct {
	full       map[string]*cands
	names      []string
	cands      []*cands
	spaceLog10 float64
	// frozen marks (per names index) calls of non-trainable roles — the
	// calls whose host-offload bit the OffloadSearch flip move may toggle.
	frozen []bool
}

// buildSpace enumerates (and optionally shortlists) the candidate sets and
// resolves the movable call names under opt.
func buildSpace(e *estimator.Estimator, p *core.Plan, opt Options) (*space, error) {
	full, spaceLog10, err := candidateSets(p, opt.Prune, opt.OffloadSearch)
	if err != nil {
		return nil, err
	}
	sets := full
	if opt.MaxCandidatesPerCall > 0 {
		var lists map[string][]core.Assignment
		lists, spaceLog10, err = shortlist(e, p, full, opt.MaxCandidatesPerCall, false)
		if err != nil {
			return nil, err
		}
		sets = make(map[string]*cands, len(lists))
		for name, l := range lists {
			sets[name] = listOf(l)
		}
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		if len(opt.RestrictCalls) > 0 && !contains(opt.RestrictCalls, name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("search: no calls to search over")
	}
	cs := make([]*cands, len(names))
	frozen := make([]bool, len(names))
	byName := nodesByName(p)
	for i, name := range names {
		cs[i] = sets[name]
		if n := byName[name]; n != nil {
			frozen[i] = !p.Models[n.Role].Trainable
		}
	}
	return &space{full: full, names: names, cands: cs, spaceLog10: spaceLog10, frozen: frozen}, nil
}

// enumMemo caches the pure enumeration helpers consulted while building
// candidate sets: parallel.Enumerate keyed by its (gpus, maxTP, maxPP)
// arguments and parallel.MicroBatchOptions keyed by the per-replica batch.
// Calls in one problem share mesh sizes and mostly share model shapes, so
// the same enumerations recur across every (call, size) pair.
type enumMemo struct {
	strategies map[[3]int][]parallel.Strategy
	microBatch map[int][]int
}

func newEnumMemo() *enumMemo {
	return &enumMemo{
		strategies: map[[3]int][]parallel.Strategy{},
		microBatch: map[int][]int{},
	}
}

func (m *enumMemo) enumerate(gpus, maxTP, maxPP int) []parallel.Strategy {
	key := [3]int{gpus, maxTP, maxPP}
	sts, ok := m.strategies[key]
	if !ok {
		sts = parallel.Enumerate(gpus, maxTP, maxPP)
		m.strategies[key] = sts
	}
	return sts
}

func (m *enumMemo) microBatchOptions(perDP int) []int {
	mbs, ok := m.microBatch[perDP]
	if !ok {
		mbs = parallel.MicroBatchOptions(perDP)
		m.microBatch[perDP] = mbs
	}
	return mbs
}

// appendOptions appends the legal assignments of one call on mesh m under
// the pruning level to dst. Legality and the memory filter read only m's
// size, so the options of one mesh hold for every mesh of its size.
//
// The offload axis: with offloadSearch set, every layout of a frozen role is
// emitted twice — device-resident and host-offloaded — so every solver
// (greedy seeding, MCMC redraws, the exhaustive cross product) explores the
// offload decision. Without it every call emits only the resident variant,
// keeping default solves byte-identical.
func appendOptions(dst []core.Assignment, p *core.Plan, call *dfg.Node, lvl PruneLevel, m mesh.Mesh, memo *enumMemo, offloadSearch bool) []core.Assignment {
	ms := p.Models[call.Role]
	batch := call.UpdateBatch()
	maxPP := ms.Cfg.NumLayers
	maxMB := 32
	if lvl >= PruneAggressive {
		if maxPP > 16 {
			maxPP = 16
		}
		maxMB = 8
	}
	maxTP := p.Cluster.GPUsPerNode // the paper's unconditional TP prune
	if m.Count < maxTP {
		maxTP = m.Count
	}
	out := dst
	for _, st := range memo.enumerate(m.Count, maxTP, maxPP) {
		if batch > 0 && batch%st.DP != 0 {
			continue
		}
		perDP := batch / st.DP
		if perDP == 0 {
			perDP = 1
		}
		for _, mb := range memo.microBatchOptions(perDP) {
			if mb > maxMB {
				break
			}
			a := core.Assignment{Mesh: m, Strategy: st.WithMicroBatches(mb)}
			if err := a.Strategy.Validate(m, ms.Cfg, batch); err != nil {
				continue
			}
			// Drop candidates whose own working set cannot fit the device
			// even with nothing else resident: they can never be part of a
			// feasible plan.
			spec := gpumodel.CallSpec{
				Cfg: ms.Cfg, IsCritic: ms.IsCritic, Type: call.Type,
				Work: call.Work, Strategy: a.Strategy, Mesh: a.Mesh,
			}
			if memory.Active(spec) > p.Cluster.GPU.MemoryBytes {
				continue
			}
			out = append(out, a)
			if offloadSearch && !ms.Trainable {
				a.Offload = true
				out = append(out, a)
			}
		}
	}
	return out
}

// candidateSets builds every call's shape-level candidate list and the
// joint space size. The mesh runs are pruned once and shared by all calls.
// Each call enumerates its options into one reused scratch buffer and keeps
// an exact-size copy; all calls' blocks share one backing slice.
func candidateSets(p *core.Plan, lvl PruneLevel, offloadSearch bool) (map[string]*cands, float64, error) {
	runs := meshRuns(p.Cluster, lvl)
	calls := p.Graph.Calls()
	memo := newEnumMemo()
	all := make([]cands, len(calls))
	sets := make(map[string]*cands, len(calls))
	// A call has at most one block per run, so appending never moves the
	// backing array and each call's blocks are sliced as they are appended.
	blocks := make([]block, 0, len(runs)*len(calls))
	var buf []core.Assignment
	var log10 float64
	for i, n := range calls {
		buf = buf[:0]
		b0 := len(blocks)
		count := 0
		for _, r := range runs {
			lo := len(buf)
			buf = appendOptions(buf, p, n, lvl, mesh.Mesh{First: r.first, Count: r.size, M: p.Cluster.GPUsPerNode}, memo, offloadSearch)
			if len(buf) == lo {
				continue
			}
			blocks = append(blocks, block{lo: lo, hi: len(buf), count: r.count, stride: r.stride, start: count})
			count += r.count * (len(buf) - lo)
		}
		if count == 0 {
			return nil, 0, fmt.Errorf("search: call %q has no legal assignment", n.Name)
		}
		all[i] = cands{n: count, opts: slices.Clone(buf), blocks: blocks[b0:len(blocks):len(blocks)]}
		sets[n.Name] = &all[i]
		log10 += math.Log10(float64(count))
	}
	return sets, log10, nil
}

// callTime estimates the standalone duration of one call under a candidate
// assignment, without constructing a full plan. Assignments whose working
// set cannot plausibly coexist with the role's static memory receive an
// infeasibility surcharge, so greedy seeding and shortlists prefer layouts
// that can actually run. It reads the mesh only through its size.
func callTime(e *estimator.Estimator, p *core.Plan, n *dfg.Node, a core.Assignment) (float64, error) {
	ms, ok := p.Models[n.Role]
	if !ok {
		return 0, fmt.Errorf("search: role %q has no model", n.Role)
	}
	mc, ok := e.Costers[n.Role]
	if !ok {
		return 0, fmt.Errorf("search: role %q has no coster", n.Role)
	}
	spec := gpumodel.CallSpec{
		Cfg: ms.Cfg, IsCritic: ms.IsCritic, Type: n.Type, Work: n.Work,
		Strategy: a.Strategy, Mesh: a.Mesh,
	}
	t := gpumodel.AssembleCall(mc, e.Comm, spec).Total()
	if a.Offload {
		// An offloaded call pays the PCIe reload of its parameter shard every
		// invocation — the time side of the memory it releases.
		t += e.Comm.OffloadTransfer(memory.ParamShardBytes(ms.Params(), a.Strategy))
	}
	static := estimator.StaticBytes(ms, a.Strategy, a.Offload && !ms.Trainable)
	if memory.Active(spec)+static > p.Cluster.GPU.MemoryBytes {
		t *= estimator.OOMPenalty
	}
	return t, nil
}

// nodesByName returns a representative dfg node for each distinct call name.
func nodesByName(p *core.Plan) map[string]*dfg.Node {
	calls := p.Graph.Calls()
	out := make(map[string]*dfg.Node, len(calls))
	for _, n := range calls {
		out[n.Name] = n
	}
	return out
}

// shortlist keeps the topK individually fastest candidates of each call.
// It costs each option once, on its size's first mesh, and expands the
// times over the per-mesh candidate order only to feed the sort, so the
// order (ties included) is the one a per-candidate costing gives.
// With dedupeLayouts set, only the best micro-batch variant of each
// (mesh, dp, tp, pp) layout survives, so a small K still spans genuinely
// different memory/speed trade-offs — essential for the exhaustive search,
// where K same-layout variants would make every joint combination inherit
// the same static-memory footprint.
func shortlist(e *estimator.Estimator, p *core.Plan, sets map[string]*cands, topK int, dedupeLayouts bool) (map[string][]core.Assignment, float64, error) {
	byName := nodesByName(p)
	out := map[string][]core.Assignment{}
	var log10 float64
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := sets[name]
		n := byName[name]
		type scored struct {
			a core.Assignment
			t float64
		}
		// callTime fails only for a role without a model or coster, so an
		// option that fails leaves no candidate of the call costable.
		ts := make([]float64, len(c.opts))
		for k, a := range c.opts {
			t, err := callTime(e, p, n, a)
			if err != nil {
				return nil, 0, fmt.Errorf("search: no costable assignment for %q", name)
			}
			ts[k] = t
		}
		all := make([]scored, 0, c.n)
		for _, b := range c.blocks {
			for pos := 0; pos < b.count; pos++ {
				for k := b.lo; k < b.hi; k++ {
					a := c.opts[k]
					a.Mesh.First += pos * b.stride
					all = append(all, scored{a, ts[k]})
				}
			}
		}
		sort.Slice(all, func(x, y int) bool { return all[x].t < all[y].t })
		if dedupeLayouts {
			seen := map[core.Assignment]bool{}
			dedup := all[:0]
			for _, s := range all {
				key := s.a
				key.Strategy.MicroBatches = 0
				if seen[key] {
					continue
				}
				seen[key] = true
				dedup = append(dedup, s)
			}
			all = dedup
		}
		if topK > 0 && len(all) > topK {
			all = all[:topK]
		}
		list := make([]core.Assignment, len(all))
		for i, s := range all {
			list[i] = s.a
		}
		out[name] = list
		log10 += math.Log10(float64(len(list)))
	}
	return out, log10, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
