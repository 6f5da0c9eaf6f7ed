// Package gpumodel is the analytic kernel-cost oracle that substitutes for
// the paper's real H100 kernels (see DESIGN.md §2). It answers two kinds of
// question:
//
//   - per-layer primitive costs (forward, backward, decode step, head,
//     optimizer step) through the ModelCoster interface, implemented here by
//     the ground-truth Oracle and in internal/profiler by interpolated,
//     noisy profiles — exactly the split the paper has between real kernels
//     and its profiling-assisted estimator;
//   - communication primitive costs (all-reduce, P2P, broadcast, offload),
//     which both the paper's estimator and ours compute analytically from
//     data size and bandwidth (§5.1).
//
// On top of the primitives, AssembleCall composes the full cost and category
// breakdown of one model function call under a (mesh, strategy) assignment:
// micro-batched 1F1B pipelines for training, single-pass pipelines for
// inference, and prefill+decode for generation.
package gpumodel

import (
	"math"

	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

// kernelsPerLayer is the number of kernel launches a fused transformer layer
// issues (qkv, rope, core attention, out proj, 3 MLP matmuls, 2 norms).
const kernelsPerLayer = 9

// decodeIOBaseEfficiency is the fraction of peak HBM bandwidth that small
// auto-regressive decoding kernels achieve at TP=1. Real decode kernels are
// far from the roofline, and slicing weights across TP ranks degrades the
// achieved bandwidth further (paper Fig. 10: TP=8 is only ~2× faster per
// layer than TP=2). decodeIOTPDegrade controls that degradation.
const (
	decodeIOBaseEfficiency = 0.30
	decodeIOTPDegrade      = 0.18
	// decodeARSyncPerRank is the extra per-participant synchronization cost
	// of the tiny all-reduces issued between decode kernels: with one
	// collective every few hundred microseconds, launch serialization and
	// stragglers dominate (the large all-reduce bars of Fig. 10).
	decodeARSyncPerRank = 25e-6
)

func decodeIOEfficiency(tp int) float64 {
	return decodeIOBaseEfficiency / (1 + decodeIOTPDegrade*float64(tp-1))
}

// ModelCoster yields per-layer primitive times (seconds) for one model
// architecture at a given tensor-parallel degree. tokens are per micro-batch
// per data-parallel rank; avgSpan is the mean attention span.
type ModelCoster interface {
	// LayerFwd is one transformer layer's forward time.
	LayerFwd(tp int, tokens int64, avgSpan float64) float64
	// LayerBwd is one transformer layer's backward time.
	LayerBwd(tp int, tokens int64, avgSpan float64) float64
	// LayerDecode is one layer's time for a single decoding step over
	// batchSeqs sequences whose current length is pos.
	LayerDecode(tp int, batchSeqs int, pos int) float64
	// HeadFwd is the output-head (logits) forward time over tokens.
	HeadFwd(tp int, tokens int64) float64
	// OptimStep is the optimizer update time for a local shard of params.
	OptimStep(shardParams int64) float64
}

// Oracle is the ground-truth ModelCoster backed by the hardware model.
type Oracle struct {
	HW  hardware.Cluster
	Cfg model.Config
	// UseCUDAGraph captures decode kernels into a CUDA graph, shrinking the
	// per-kernel launch overhead (Table 6's ±CUDAGraph rows).
	UseCUDAGraph bool
}

// NewOracle binds the hardware model to one architecture.
func NewOracle(hw hardware.Cluster, cfg model.Config) *Oracle {
	return &Oracle{HW: hw, Cfg: cfg, UseCUDAGraph: true}
}

// matmulEfficiency is the achieved fraction of peak FLOPs for a GEMM whose
// per-GPU row count is tokens: a saturating curve that penalizes the small
// shards produced by over-parallelization, plus a mild thin-matrix penalty
// as TP slices weight matrices.
func (o *Oracle) matmulEfficiency(tokens int64, tp int) float64 {
	g := o.HW.GPU
	t := float64(tokens)
	sat := t / (t + g.EfficiencyHalfTokens)
	thin := 1.0 / (1.0 + 0.09*math.Log2(float64(tp)))
	return g.MaxMatmulEfficiency * sat * thin
}

func (o *Oracle) launch(kernels float64, decode bool) float64 {
	ov := o.HW.GPU.KernelLaunchOverhead
	if decode && o.UseCUDAGraph {
		ov *= o.HW.GPU.CUDAGraphLaunchFactor
	}
	return kernels * ov
}

// LayerFwd implements the roofline: max(compute, weight+KV traffic) plus
// launch overhead.
func (o *Oracle) LayerFwd(tp int, tokens int64, avgSpan float64) float64 {
	g := o.HW.GPU
	flops := o.Cfg.LayerFwdFLOPs(tokens, avgSpan) / float64(tp)
	compute := flops / (g.PeakFLOPs * o.matmulEfficiency(tokens, tp))
	io := float64(o.Cfg.LayerParamBytes()/int64(tp)) / g.HBMBandwidth
	kvIO := float64(tokens*o.Cfg.KVBytesPerTokenPerLayer()/int64(tp)) / g.HBMBandwidth
	return math.Max(compute, io+kvIO) + o.launch(kernelsPerLayer, false)
}

// LayerBwd costs ~2× the forward matmuls with doubled weight traffic.
func (o *Oracle) LayerBwd(tp int, tokens int64, avgSpan float64) float64 {
	g := o.HW.GPU
	flops := 2 * o.Cfg.LayerFwdFLOPs(tokens, avgSpan) / float64(tp)
	compute := flops / (g.PeakFLOPs * o.matmulEfficiency(tokens, tp))
	io := 2 * float64(o.Cfg.LayerParamBytes()/int64(tp)) / g.HBMBandwidth
	return math.Max(compute, io) + o.launch(1.5*kernelsPerLayer, false)
}

// LayerDecode is memory-bound: every step reads the full local weight shard
// and the KV cache of all batched sequences.
func (o *Oracle) LayerDecode(tp int, batchSeqs int, pos int) float64 {
	g := o.HW.GPU
	eff := decodeIOEfficiency(tp)
	weightIO := float64(o.Cfg.LayerParamBytes()/int64(tp)) / (g.HBMBandwidth * eff)
	kvIO := float64(int64(batchSeqs)*int64(pos)*o.Cfg.KVBytesPerTokenPerLayer()/int64(tp)) /
		(g.HBMBandwidth * eff)
	flops := o.Cfg.LayerFwdFLOPs(int64(batchSeqs), float64(pos)) / float64(tp)
	compute := flops / (g.PeakFLOPs * o.matmulEfficiency(int64(batchSeqs), tp))
	return math.Max(compute, weightIO+kvIO) + o.launch(kernelsPerLayer, true)
}

// HeadFwd is the logits GEMM plus the (huge, 128k-vocab) logit traffic.
func (o *Oracle) HeadFwd(tp int, tokens int64) float64 {
	g := o.HW.GPU
	flops := o.Cfg.HeadFLOPs(tokens) / float64(tp)
	compute := flops / (g.PeakFLOPs * o.matmulEfficiency(tokens, tp))
	logitBytes := float64(tokens) * float64(o.Cfg.VocabSize) * model.BytesPerParam / float64(tp)
	weightBytes := float64(o.Cfg.EmbedParams()) * model.BytesPerParam / float64(tp)
	io := (3*logitBytes + weightBytes) / g.HBMBandwidth // write + softmax read/write
	return math.Max(compute, io) + o.launch(3, false)
}

// OptimStep models a fused Adam update: ~16 bytes of state traffic per local
// parameter (bf16 weight+grad, fp32 master+moments, read+write).
func (o *Oracle) OptimStep(shardParams int64) float64 {
	return float64(shardParams) * 16 / o.HW.GPU.HBMBandwidth
}

// Comm computes communication primitive costs analytically, as the paper's
// estimator does ("we approximate the time with the data size and the
// bandwidth instead of running a real NCCL operation").
type Comm struct {
	HW hardware.Cluster
}

// AllReduce is a ring all-reduce over n ranks: 2(n-1)/n volume factor, a
// per-hop latency term and a per-participant synchronization overhead. The
// sync term dominates the tiny all-reduces of decoding (paper Fig. 10).
func (c Comm) AllReduce(bytes int64, n int, crossNode bool) float64 {
	if n <= 1 {
		return 0
	}
	bw := c.HW.Bandwidth(crossNode)
	vol := 2 * float64(n-1) / float64(n) * float64(bytes) / bw
	lat := float64(n-1) * c.HW.Latency(crossNode)
	sync := float64(n) * c.HW.Net.CollectiveSyncOverhead
	return vol + lat + sync
}

// ReduceScatter (or AllGather) moves half the all-reduce volume.
func (c Comm) ReduceScatter(bytes int64, n int, crossNode bool) float64 {
	if n <= 1 {
		return 0
	}
	bw := c.HW.Bandwidth(crossNode)
	vol := float64(n-1) / float64(n) * float64(bytes) / bw
	lat := float64(n-1) * c.HW.Latency(crossNode)
	sync := float64(n) * c.HW.Net.CollectiveSyncOverhead
	return vol + lat + sync
}

// P2P is a point-to-point activation transfer between pipeline stages.
func (c Comm) P2P(bytes int64, crossNode bool) float64 {
	return float64(bytes)/c.HW.Bandwidth(crossNode) + c.HW.Latency(crossNode)
}

// Broadcast sends bytes from one source to a set of destinations; ring/tree
// pipelining makes the cost roughly size/bw plus latency.
func (c Comm) Broadcast(bytes int64, crossNode bool) float64 {
	return float64(bytes)/c.HW.Bandwidth(crossNode) + c.HW.Latency(crossNode)
}

// OffloadTransfer is the host<->device cost of one offload or reload over
// PCIe: the bytes over the PCIe bandwidth plus a fixed per-transfer setup
// latency. The estimator prices offload nodes and the search prices an
// offloaded call's reload with it.
func (c Comm) OffloadTransfer(bytes int64) float64 {
	return float64(bytes)/c.HW.Net.PCIeBandwidth + c.HW.Net.PCIeLatency
}

// CallSpec identifies one model function call to be costed.
type CallSpec struct {
	Cfg      model.Config
	IsCritic bool // scalar value head instead of the vocab head
	Type     dfg.CallType
	Work     dfg.Workload
	Strategy parallel.Strategy
	Mesh     mesh.Mesh
}

// Breakdown partitions a call's per-GPU wall time into the CUDA-kernel
// categories of paper Fig. 11. Total() is the call's wall-clock duration.
type Breakdown struct {
	Compute float64 // GEMM/attention/optimizer kernels incl. launch
	TPComm  float64 // tensor-parallel collectives
	PPComm  float64 // pipeline P2P sends/recvs
	DPComm  float64 // gradient collectives
	Bubble  float64 // pipeline bubbles + sync idle
}

// Total is the wall-clock duration of the call.
func (b Breakdown) Total() float64 {
	return b.Compute + b.TPComm + b.PPComm + b.DPComm + b.Bubble
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.TPComm += o.TPComm
	b.PPComm += o.PPComm
	b.DPComm += o.DPComm
	b.Bubble += o.Bubble
}

// Scale multiplies every component.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Compute: b.Compute * f, TPComm: b.TPComm * f, PPComm: b.PPComm * f,
		DPComm: b.DPComm * f, Bubble: b.Bubble * f,
	}
}

// AssembleCall composes the per-layer primitives of mc and the comm model
// into the full cost of one model function call under spec.
func AssembleCall(mc ModelCoster, comm Comm, spec CallSpec) Breakdown {
	switch spec.Type {
	case dfg.Train:
		return assembleTrain(mc, comm, spec)
	case dfg.Inference:
		return assembleForward(mc, comm, spec, spec.Work.SeqLen())
	case dfg.Generate:
		prefill := assembleForward(mc, comm, spec, spec.Work.PromptLen)
		decode := assembleDecode(mc, comm, spec)
		prefill.Add(decode)
		return prefill
	}
	return Breakdown{}
}

// shape is the resolved data decomposition of a call.
type shape struct {
	seqsPerDP    int
	mbs          int // effective micro-batch count
	seqsPerMicro int
	lps          int // layers per pipeline stage
	tpCross      bool
	ppCross      bool
	dpCross      bool
}

func resolveShape(spec CallSpec, batch int) shape {
	s := spec.Strategy
	perDP := (batch + s.DP - 1) / s.DP
	if perDP < 1 {
		perDP = 1
	}
	mbs := s.MicroBatches
	if mbs > perDP {
		mbs = perDP
	}
	if mbs < 1 {
		mbs = 1
	}
	perMicro := (perDP + mbs - 1) / mbs
	return shape{
		seqsPerDP:    perDP,
		mbs:          mbs,
		seqsPerMicro: perMicro,
		lps:          s.LayersPerStage(spec.Cfg),
		tpCross:      s.TPCrossesNode(spec.Mesh),
		ppCross:      s.PPCrossesNode(spec.Mesh),
		dpCross:      s.DPCrossesNode(spec.Mesh),
	}
}

// assembleForward costs a single forward pass (inference, or the prefill
// phase of generation) over seqLen tokens per sequence, pipelined over
// micro-batches: wall = (mbs + pp - 1) × stage period.
func assembleForward(mc ModelCoster, comm Comm, spec CallSpec, seqLen int) Breakdown {
	s := spec.Strategy
	sh := resolveShape(spec, spec.Work.Batch)
	tokensMicro := int64(sh.seqsPerMicro) * int64(seqLen)
	span := float64(seqLen) / 2

	layerFwd := mc.LayerFwd(s.TP, tokensMicro, span)
	arBytes := tokensMicro * int64(spec.Cfg.HiddenSize) * model.BytesPerParam
	layerAR := comm.AllReduce(arBytes, s.TP, sh.tpCross)

	stageCompute := float64(sh.lps) * layerFwd
	stageTP := float64(sh.lps) * layerAR
	var head float64
	if !spec.IsCritic {
		head = mc.HeadFwd(s.TP, tokensMicro) / float64(s.PP)
	}
	stageCompute += head

	var stageDP float64
	if s.ZeRO3 {
		// Every layer's weights are all-gathered across the DP group before
		// use.
		cross := spec.Mesh.CrossNode()
		stageDP = float64(sh.lps) * comm.ReduceScatter(spec.Cfg.LayerParamBytes(), s.DP, cross)
	}

	var stagePP float64
	if s.PP > 1 {
		stagePP = comm.P2P(arBytes, sh.ppCross)
	}
	period := stageCompute + stageTP + stagePP + stageDP
	waves := float64(sh.mbs + s.PP - 1)

	return Breakdown{
		Compute: float64(sh.mbs) * stageCompute,
		TPComm:  float64(sh.mbs) * stageTP,
		PPComm:  float64(sh.mbs) * stagePP,
		DPComm:  float64(sh.mbs) * stageDP,
		Bubble:  (waves - float64(sh.mbs)) * period,
	}
}

// assembleTrain costs one training call: MiniBatches sequential PPO updates,
// each a 1F1B pipeline over its share of the batch followed by a gradient
// all-reduce across DP peers and an optimizer step.
func assembleTrain(mc ModelCoster, comm Comm, spec CallSpec) Breakdown {
	s := spec.Strategy
	mini := spec.Work.MiniBatches
	if mini < 1 {
		mini = 1
	}
	perMini := spec.Work.Batch / mini
	if perMini < 1 {
		perMini = 1
	}
	sh := resolveShape(spec, perMini)
	seqLen := spec.Work.SeqLen()
	tokensMicro := int64(sh.seqsPerMicro) * int64(seqLen)
	span := float64(seqLen) / 2

	layerFwd := mc.LayerFwd(s.TP, tokensMicro, span)
	layerBwd := mc.LayerBwd(s.TP, tokensMicro, span)
	arBytes := tokensMicro * int64(spec.Cfg.HiddenSize) * model.BytesPerParam
	layerAR := comm.AllReduce(arBytes, s.TP, sh.tpCross)

	stageCompute := float64(sh.lps) * (layerFwd + layerBwd)
	stageTP := float64(sh.lps) * 4 * layerAR // 2 fwd + 2 bwd all-reduces per layer
	if !spec.IsCritic {
		stageCompute += 3 * mc.HeadFwd(s.TP, tokensMicro) / float64(s.PP)
	}
	var stagePP float64
	if s.PP > 1 {
		stagePP = 2 * comm.P2P(arBytes, sh.ppCross) // activations fwd + grads bwd
	}
	period := stageCompute + stageTP + stagePP
	waves := float64(sh.mbs + s.PP - 1)

	params := spec.Cfg.Params()
	if spec.IsCritic {
		params = spec.Cfg.CriticParams()
	}
	shardParams := params / int64(s.TP*s.PP)
	gradBytes := shardParams * model.BytesPerParam
	var dpSync, stageDP float64
	if s.ZeRO3 {
		// Per-layer all-gathers in forward and backward plus a per-layer
		// gradient reduce-scatter replace the end-of-step all-reduce.
		cross := spec.Mesh.CrossNode()
		stageDP = float64(sh.lps) * 3 * comm.ReduceScatter(spec.Cfg.LayerParamBytes(), s.DP, cross)
		shardParams = params / int64(s.DP)
	} else {
		dpSync = comm.AllReduce(gradBytes, s.DP, sh.dpCross)
	}
	opt := mc.OptimStep(shardParams)
	period += stageDP

	perUpdate := Breakdown{
		Compute: float64(sh.mbs)*stageCompute + opt,
		TPComm:  float64(sh.mbs) * stageTP,
		PPComm:  float64(sh.mbs) * stagePP,
		DPComm:  dpSync + float64(sh.mbs)*stageDP,
		Bubble:  (waves - float64(sh.mbs)) * period,
	}
	return perUpdate.Scale(float64(mini))
}

// assembleDecode costs the auto-regressive decoding phase: GenLen sequential
// steps; within a step, micro-batches pipeline across stages, so the step
// wall time is max(mbs, pp) stage periods (steady state).
func assembleDecode(mc ModelCoster, comm Comm, spec CallSpec) Breakdown {
	s := spec.Strategy
	sh := resolveShape(spec, spec.Work.Batch)
	steps := spec.Work.GenLen
	if steps <= 0 {
		return Breakdown{}
	}
	avgPos := spec.Work.PromptLen + steps/2

	layerDec := mc.LayerDecode(s.TP, sh.seqsPerMicro, avgPos)
	arBytes := int64(sh.seqsPerMicro) * int64(spec.Cfg.HiddenSize) * model.BytesPerParam
	layerAR := comm.AllReduce(arBytes, s.TP, sh.tpCross)
	if s.TP > 1 {
		layerAR += decodeARSyncPerRank * float64(s.TP)
	}

	stageCompute := float64(sh.lps) * layerDec
	stageTP := float64(sh.lps) * layerAR
	head := mc.HeadFwd(s.TP, int64(sh.seqsPerMicro)) / float64(s.PP)
	stageCompute += head

	var stagePP float64
	if s.PP > 1 {
		stagePP = comm.P2P(arBytes, sh.ppCross) + comm.HW.Net.CollectiveSyncOverhead*float64(s.PP)
	}
	period := stageCompute + stageTP + stagePP
	waves := math.Max(float64(sh.mbs), float64(s.PP))

	perStep := Breakdown{
		Compute: float64(sh.mbs) * stageCompute,
		TPComm:  float64(sh.mbs) * stageTP,
		PPComm:  float64(sh.mbs) * stagePP,
		Bubble:  (waves - float64(sh.mbs)) * period,
	}
	return perStep.Scale(float64(steps))
}

// CallFLOPs returns the model FLOPs a call performs — the numerator of the
// paper's throughput metric (PFLOP/s). It is hardware-independent.
func CallFLOPs(spec CallSpec) float64 {
	cfg := spec.Cfg
	w := spec.Work
	withHead := !spec.IsCritic
	switch spec.Type {
	case dfg.Train:
		return cfg.TrainFLOPs(w.TotalTokens(), float64(w.SeqLen())/2, withHead)
	case dfg.Inference:
		return cfg.FwdFLOPs(w.TotalTokens(), float64(w.SeqLen())/2, withHead)
	case dfg.Generate:
		prompt := cfg.FwdFLOPs(int64(w.Batch)*int64(w.PromptLen), float64(w.PromptLen)/2, withHead)
		decode := cfg.FwdFLOPs(int64(w.Batch)*int64(w.GenLen), float64(w.PromptLen+w.GenLen/2), withHead)
		return prompt + decode
	}
	return 0
}
