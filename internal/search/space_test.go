package search

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/memory"
	"realhf/internal/mesh"
)

// expand lists every candidate of c in order, through the index map.
func expand(c *cands) []core.Assignment {
	out := make([]core.Assignment, c.n)
	for i := range out {
		out[i] = c.at(i)
	}
	return out
}

// The reference per-mesh space: the enumeration, greedy seed and shortlist
// as they were before the space was built by mesh shape. Every candidate is
// materialized and costed on its own mesh. CheckShapeSpace holds the
// shape-level space to them.

func refAppendCandidates(dst []core.Assignment, p *core.Plan, call *dfg.Node, lvl PruneLevel, meshes []mesh.Mesh, memo *enumMemo, offloadSearch bool) []core.Assignment {
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
	out := dst
	for _, m := range meshes {
		if lvl >= PruneModerate && m.Count > p.Cluster.GPUsPerNode {
			span := m.Count / p.Cluster.GPUsPerNode
			if span&(span-1) != 0 || m.FirstNode()%span != 0 {
				continue
			}
		}
		maxTP := p.Cluster.GPUsPerNode
		if m.Count < maxTP {
			maxTP = m.Count
		}
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
	}
	return out
}

func refCandidateSets(p *core.Plan, lvl PruneLevel, offloadSearch bool) (map[string][]core.Assignment, float64, error) {
	sets := map[string][]core.Assignment{}
	var log10 float64
	meshes := mesh.Enumerate(p.Cluster)
	memo := newEnumMemo()
	var buf []core.Assignment
	for _, n := range p.Graph.Calls() {
		buf = refAppendCandidates(buf[:0], p, n, lvl, meshes, memo, offloadSearch)
		if len(buf) == 0 {
			return nil, 0, fmt.Errorf("search: call %q has no legal assignment", n.Name)
		}
		sets[n.Name] = slices.Clone(buf)
		log10 += math.Log10(float64(len(buf)))
	}
	return sets, log10, nil
}

func refGreedy(e *estimator.Estimator, p *core.Plan, sets map[string][]core.Assignment) (*core.Plan, error) {
	byName := nodesByName(p)
	out := p.Clone()
	for name, n := range byName {
		best := math.Inf(1)
		var bestA core.Assignment
		for _, a := range sets[name] {
			t, err := callTime(e, p, n, a)
			if err != nil {
				continue
			}
			if t < best {
				best, bestA = t, a
			}
		}
		if math.IsInf(best, 1) {
			return nil, fmt.Errorf("search: no costable assignment for %q", name)
		}
		out.Assign[name] = bestA
	}
	return out, nil
}

func refShortlist(e *estimator.Estimator, p *core.Plan, sets map[string][]core.Assignment, topK int, dedupeLayouts bool) (map[string][]core.Assignment, float64, error) {
	byName := nodesByName(p)
	out := map[string][]core.Assignment{}
	var log10 float64
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		type scored struct {
			a core.Assignment
			t float64
		}
		all := make([]scored, 0, len(sets[name]))
		for _, a := range sets[name] {
			t, err := callTime(e, p, byName[name], a)
			if err != nil {
				continue
			}
			all = append(all, scored{a, t})
		}
		if len(all) == 0 {
			return nil, 0, fmt.Errorf("search: no costable assignment for %q", name)
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

// checkShapeSpace compares the shape-level space of p at one pruning level
// with the reference per-mesh space: per call, the same candidate count and
// the index map equal to the reference list element for element; the same
// SpaceLog10 bit for bit; the same greedy seed; and the same shortlists,
// with and without layout dedupe. It returns the number of candidates
// compared: none when a call has no legal assignment, which both spaces
// must then report with the same error.
func checkShapeSpace(e *estimator.Estimator, p *core.Plan, lvl PruneLevel, offloadSearch bool) (int, error) {
	ref, refLog, refErr := refCandidateSets(p, lvl, offloadSearch)
	got, gotLog, err := candidateSets(p, lvl, offloadSearch)
	if refErr != nil || err != nil {
		// A call with no legal assignment fails both the same way.
		if refErr == nil || err == nil || err.Error() != refErr.Error() {
			return 0, fmt.Errorf("error %v, reference %v", err, refErr)
		}
		return 0, nil
	}
	if math.Float64bits(gotLog) != math.Float64bits(refLog) {
		return 0, fmt.Errorf("SpaceLog10 %v, reference %v", gotLog, refLog)
	}
	if len(got) != len(ref) {
		return 0, fmt.Errorf("%d calls, reference %d", len(got), len(ref))
	}
	compared := 0
	for name, want := range ref {
		c := got[name]
		if c == nil || c.n != len(want) {
			return 0, fmt.Errorf("%s: candidate count differs from the reference's %d", name, len(want))
		}
		for i, a := range want {
			if c.at(i) != a {
				return 0, fmt.Errorf("%s: candidate %d is %v, reference %v", name, i, c.at(i), a)
			}
		}
		compared += c.n
	}
	refSeed, err := refGreedy(e, p, ref)
	if err != nil {
		return 0, err
	}
	seed, err := greedyFromSets(e, p, got)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(seed.Assign, refSeed.Assign) {
		return 0, fmt.Errorf("greedy seed %v, reference %v", seed.Assign, refSeed.Assign)
	}
	for _, dedupe := range []bool{false, true} {
		refList, refLog, err := refShortlist(e, p, ref, 6, dedupe)
		if err != nil {
			return 0, err
		}
		list, log, err := shortlist(e, p, got, 6, dedupe)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(list, refList) || math.Float64bits(log) != math.Float64bits(refLog) {
			return 0, fmt.Errorf("dedupe=%v: shortlist %v (log10 %v), reference %v (log10 %v)", dedupe, list, log, refList, refLog)
		}
	}
	return compared, nil
}
