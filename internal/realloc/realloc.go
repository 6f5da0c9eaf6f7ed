package realloc

import (
	"sort"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/gpumodel"
	"realhf/internal/hardware"
)

// Op is one broadcast of the redistribution schedule: SrcGPU sends Bytes
// (the tensor chunk [ChunkLo, ChunkHi)/ChunkDen of layers [LayerLo, LayerHi))
// to DstGPUs in a single pipelined broadcast.
type Op struct {
	SrcGPU  int
	DstGPUs []int
	Bytes   int64

	LayerLo, LayerHi           int
	ChunkLo, ChunkHi, ChunkDen int
}

// Schedule is the full set of broadcasts realizing one redistribution. Ops
// from distinct sources proceed in parallel; ops sharing a source serialize.
type Schedule struct {
	Ops []Op
	// LocalBytes counts payload already resident on its destination (no
	// communication needed).
	LocalBytes int64
}

// nodeOf returns the host index of a GPU.
func nodeOf(gpu, gpusPerNode int) int { return gpu / gpusPerNode }

// srcDst is one destination GPU's choice of source replica.
type srcDst struct{ src, dst int }

// pairScratch holds the per-cell working storage of the matching loops. The
// planners allocate one per schedule and reuse it across every (tp, tp) or
// (dp, dp) cell, replacing the per-cell slice+map+sort churn that dominated
// the estimator's allocation profile.
type pairScratch struct {
	srcs    []int
	srcNode []int // host of each source, by srcs index
	dstg    []int
	pairs   []srcDst
}

func (ps *pairScratch) reset(nsrcs, ndsts int) {
	if cap(ps.srcs) < nsrcs {
		ps.srcs = make([]int, nsrcs)
		ps.srcNode = make([]int, nsrcs)
	}
	ps.srcs = ps.srcs[:nsrcs]
	ps.srcNode = ps.srcNode[:nsrcs]
	if cap(ps.dstg) < ndsts {
		ps.dstg = make([]int, ndsts)
	}
	ps.dstg = ps.dstg[:ndsts]
	ps.pairs = ps.pairs[:0]
}

// chooseSources runs one cell's matching: every destination GPU in dstg
// picks its cheapest source replica from srcs (resident ≺ same node ≺
// remote, first minimum wins); non-local choices are collected as sorted
// (src, dst) pairs and destinations already holding the piece are counted
// as local. Each GPU's host is computed once per cell, and a destination
// stops at a resident source: sources are distinct GPUs, so it is the only
// one at the least cost.
func (ps *pairScratch) chooseSources(gpusPerNode int) (local int) {
	for i, s := range ps.srcs {
		ps.srcNode[i] = nodeOf(s, gpusPerNode)
	}
	for _, dgpu := range ps.dstg {
		dnode := nodeOf(dgpu, gpusPerNode)
		best, bestRemote := ps.srcs[0], true
		for i, s := range ps.srcs {
			if s == dgpu {
				best = s
				break
			}
			if bestRemote && ps.srcNode[i] == dnode {
				best, bestRemote = s, false
			}
		}
		if best == dgpu {
			local++
			continue
		}
		ps.pairs = append(ps.pairs, srcDst{src: best, dst: dgpu})
	}
	ps.sortPairs()
	return local
}

// sortPairs orders (src, dst) pairs lexicographically — the same order the
// map-based matching produced via sorted source keys and sorted destination
// lists. Pairs are distinct (each destination GPU appears once per cell), so
// insertion sort is deterministic; it is used over sort.Slice to keep the
// hot path comparison-closure and allocation free.
func (ps *pairScratch) sortPairs() {
	pairs := ps.pairs
	for i := 1; i < len(pairs); i++ {
		p := pairs[i]
		j := i - 1
		for j >= 0 && (pairs[j].src > p.src || (pairs[j].src == p.src && pairs[j].dst > p.dst)) {
			pairs[j+1] = pairs[j]
			j--
		}
		pairs[j+1] = p
	}
}

// emitOps appends one broadcast per run of pairs sharing a source. Pairs
// must already be sorted by (src, dst).
func (ps *pairScratch) emitOps(sched *Schedule, pieceBytes int64, lo, hi, cLo, cHi, den int) {
	pairs := ps.pairs
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].src == pairs[i].src {
			j++
		}
		dsts := make([]int, 0, j-i)
		for _, pr := range pairs[i:j] {
			dsts = append(dsts, pr.dst)
		}
		sched.Ops = append(sched.Ops, Op{
			SrcGPU: pairs[i].src, DstGPUs: dsts, Bytes: pieceBytes,
			LayerLo: lo, LayerHi: hi,
			ChunkLo: cLo, ChunkHi: cHi, ChunkDen: den,
		})
		i = j
	}
}

// accumBusy charges one cell's broadcasts to per-GPU busy time — the ops
// emitOps would append, priced: one broadcast per run of pairs sharing a
// source, costed cross-node when any destination lives on a
// different host, added to the source and every destination in op order.
// Pairs must already be sorted by (src, dst).
func (ps *pairScratch) accumBusy(busy []float64, comm gpumodel.Comm, pieceBytes int64, gpusPerNode int) {
	pairs := ps.pairs
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].src == pairs[i].src {
			j++
		}
		src := pairs[i].src
		cross := false
		srcNode := src / gpusPerNode
		for _, pr := range pairs[i:j] {
			if pr.dst/gpusPerNode != srcNode {
				cross = true
				break
			}
		}
		t := comm.Broadcast(pieceBytes, cross)
		busy[src] += t
		for _, pr := range pairs[i:j] {
			busy[pr.dst] += t
		}
		i = j
	}
}

// walkParams runs the matching of a parameter reallocation of `layers`
// layers (layerBytes bf16 bytes each) from layout src to layout dst (paper
// Fig. 6) cell by cell. The outer loop visits pipeline stage pairs with
// intersecting layer ranges; the inner loop remaps the (dp×tp) grid of
// source stage i onto destination stage j for the common layers [lo, hi):
// for every (source tp rank, destination tp rank) pair with overlapping
// tensor chunks, each destination GPU picks its cheapest source replica.
// cell sees each matched cell in ps (pairs sorted by (src, dst)) with the
// piece's size and coordinates and the number of destinations already
// holding it.
func walkParams(ps *pairScratch, layers int, layerBytes int64, src, dst core.Assignment, gpusPerNode int,
	cell func(pieceBytes int64, local, lo, hi, cLo, cHi, den int)) {
	ss, ds := src.Strategy, dst.Strategy
	for j := 0; j < ds.PP; j++ {
		dLo, dHi := StageLayers(layers, ds, j)
		if dLo >= dHi {
			continue
		}
		for i := 0; i < ss.PP; i++ {
			sLo, sHi := StageLayers(layers, ss, i)
			lo, hi := maxInt(dLo, sLo), minInt(dHi, sHi)
			if lo >= hi {
				continue
			}
			den := lcm(ss.TP, ds.TP)
			sw := den / ss.TP // sub-chunks per source partition
			dw := den / ds.TP // sub-chunks per destination partition
			bytesPerChunk := int64(hi-lo) * layerBytes / int64(den)
			for dtp := 0; dtp < ds.TP; dtp++ {
				dChunkLo, dChunkHi := dtp*dw, (dtp+1)*dw
				for stp := 0; stp < ss.TP; stp++ {
					cLo, cHi := maxInt(dChunkLo, stp*sw), minInt(dChunkHi, (stp+1)*sw)
					if cLo >= cHi {
						continue
					}
					// Sources are the DP replicas of (source stage i, tp
					// rank stp), destinations the DP replicas of
					// (destination stage j, tp rank dtp).
					ps.reset(ss.DP, ds.DP)
					for sdp := 0; sdp < ss.DP; sdp++ {
						ps.srcs[sdp] = GPUOf(src.Mesh, ss, i, sdp, stp)
					}
					for ddp := 0; ddp < ds.DP; ddp++ {
						ps.dstg[ddp] = GPUOf(dst.Mesh, ds, j, ddp, dtp)
					}
					local := ps.chooseSources(gpusPerNode)
					cell(bytesPerChunk*int64(cHi-cLo), local, lo, hi, cLo, cHi, den)
				}
			}
		}
	}
}

// walkData runs the matching of an intermediate-data transfer between two
// calls cell by cell, like walkParams. Function calls produce data
// partitioned along DP and replicated along TP — the mirror of the
// parameter layout — so the same matching runs with TP and DP roles swapped
// (paper §6): source partitions are the DP ranks of the producer's last
// stage, replicated across its TP group; destinations are the DP ranks of
// the consumer's first stage, replicated across its TP group.
func walkData(ps *pairScratch, totalBytes int64, src, dst core.Assignment, gpusPerNode int,
	cell func(pieceBytes int64, local, cLo, cHi, den int)) {
	ss, ds := src.Strategy, dst.Strategy
	den := lcm(ss.DP, ds.DP)
	sw := den / ss.DP
	dw := den / ds.DP
	bytesPerChunk := totalBytes / int64(den)
	for ddp := 0; ddp < ds.DP; ddp++ {
		dChunkLo, dChunkHi := ddp*dw, (ddp+1)*dw
		for sdp := 0; sdp < ss.DP; sdp++ {
			cLo, cHi := maxInt(dChunkLo, sdp*sw), minInt(dChunkHi, (sdp+1)*sw)
			if cLo >= cHi {
				continue
			}
			ps.reset(ss.TP, ds.TP)
			for stp := 0; stp < ss.TP; stp++ {
				ps.srcs[stp] = GPUOf(src.Mesh, ss, ss.PP-1, sdp, stp)
			}
			for dtp := 0; dtp < ds.TP; dtp++ {
				ps.dstg[dtp] = GPUOf(dst.Mesh, ds, 0, ddp, dtp)
			}
			local := ps.chooseSources(gpusPerNode)
			cell(bytesPerChunk*int64(cHi-cLo), local, cLo, cHi, den)
		}
	}
}

// PlanParams builds the broadcast schedule that rematerializes a model of
// `layers` layers (layerBytes bf16 bytes each) from layout src to layout dst
// (paper Fig. 6) — the op-list view of the matching ParamsBusy prices.
func PlanParams(layers int, layerBytes int64, src, dst core.Assignment, gpusPerNode int) Schedule {
	var sched Schedule
	var ps pairScratch
	walkParams(&ps, layers, layerBytes, src, dst, gpusPerNode, func(pieceBytes int64, local, lo, hi, cLo, cHi, den int) {
		sched.LocalBytes += int64(local) * pieceBytes
		ps.emitOps(&sched, pieceBytes, lo, hi, cLo, cHi, den)
	})
	return sched
}

// PlanData builds the broadcast schedule moving intermediate data between
// two calls — the op-list view of the matching DataBusy prices.
func PlanData(totalBytes int64, src, dst core.Assignment, gpusPerNode int) Schedule {
	var sched Schedule
	var ps pairScratch
	walkData(&ps, totalBytes, src, dst, gpusPerNode, func(pieceBytes int64, local, cLo, cHi, den int) {
		sched.LocalBytes += int64(local) * pieceBytes
		ps.emitOps(&sched, pieceBytes, 0, 0, cLo, cHi, den)
	})
	return sched
}

// CostScratch is the reusable working storage of the realloc pricers. The
// zero value is ready to use; callers on the estimator's hot path keep one
// alive across calls so steady-state costing does not allocate.
type CostScratch struct {
	pair pairScratch
	busy []float64
}

func (cs *CostScratch) resetBusy(n int) {
	if cap(cs.busy) < n {
		cs.busy = make([]float64, n)
		return
	}
	cs.busy = cs.busy[:n]
	for i := range cs.busy {
		cs.busy[i] = 0
	}
}

func maxBusy(busy []float64) float64 {
	var max float64
	for _, t := range busy {
		if t > max {
			max = t
		}
	}
	return max
}

// ParamsBusy prices a parameter reallocation per device: a GPU accumulates
// the cost of every broadcast it sends or receives, and sources broadcast in
// parallel. The returned slice, indexed by global GPU over hw, is cs's
// storage and valid until cs is next used. SwitchCost merges these
// per-device durations across models, so a redistribution only occupies the
// GPUs it actually touches.
func ParamsBusy(cs *CostScratch, layers int, layerBytes int64, src, dst core.Assignment, hw hardware.Cluster) []float64 {
	cs.resetBusy(hw.NumGPUs())
	comm := gpumodel.Comm{HW: hw}
	walkParams(&cs.pair, layers, layerBytes, src, dst, hw.GPUsPerNode, func(pieceBytes int64, _, _, _, _, _, _ int) {
		cs.pair.accumBusy(cs.busy, comm, pieceBytes, hw.GPUsPerNode)
	})
	return cs.busy
}

// ParamsCost is a parameter reallocation's wall time: the schedule finishes
// when the busiest GPU does.
func ParamsCost(cs *CostScratch, layers int, layerBytes int64, src, dst core.Assignment, hw hardware.Cluster) float64 {
	return maxBusy(ParamsBusy(cs, layers, layerBytes, src, dst, hw))
}

// DataBusy is ParamsBusy for an intermediate-data transfer.
func DataBusy(cs *CostScratch, totalBytes int64, src, dst core.Assignment, hw hardware.Cluster) []float64 {
	cs.resetBusy(hw.NumGPUs())
	comm := gpumodel.Comm{HW: hw}
	walkData(&cs.pair, totalBytes, src, dst, hw.GPUsPerNode, func(pieceBytes int64, _, _, _, _ int) {
		cs.pair.accumBusy(cs.busy, comm, pieceBytes, hw.GPUsPerNode)
	})
	return cs.busy
}

// DataCost is an intermediate-data transfer's wall time.
func DataCost(cs *CostScratch, totalBytes int64, src, dst core.Assignment, hw hardware.Cluster) float64 {
	return maxBusy(DataBusy(cs, totalBytes, src, dst, hw))
}

// SwitchCost prices a whole-plan switch exactly as §5 prices parameter
// reallocation: for every model whose home layout changes between the two
// plans, the per-GPU busy time of moving its parameters from the old home
// to the new one (ParamsBusy) is merged across models (all reallocations
// proceed in parallel), and the busiest GPU bounds the wall time. hw must
// span both plans' meshes — for an elastic resize, the larger of the two
// clusters. The public Trainer charges it on every adopted plan switch.
func SwitchCost(old, next *core.Plan, hw hardware.Cluster) float64 {
	roles := make([]dfg.Role, 0, len(old.Models))
	for role := range old.Models {
		roles = append(roles, role)
	}
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
	total := make([]float64, hw.NumGPUs())
	var cs CostScratch
	for _, role := range roles {
		ms := old.Models[role]
		oldHome, ok := old.HomeOf(role)
		if !ok {
			continue
		}
		newHome, ok := next.HomeOf(role)
		if !ok || oldHome.Equal(newHome) {
			continue
		}
		busy := ParamsBusy(&cs, ms.Cfg.NumLayers, ms.Cfg.LayerParamBytes(), oldHome, newHome, hw)
		for gpu, d := range busy {
			total[gpu] += d
		}
	}
	return maxBusy(total)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
