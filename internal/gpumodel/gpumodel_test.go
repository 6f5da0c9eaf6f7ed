package gpumodel

import (
	"math"
	"testing"

	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func testCluster(nodes int) hardware.Cluster { return hardware.DefaultCluster(nodes) }

func fullMesh(t *testing.T, nodes int) mesh.Mesh {
	t.Helper()
	return mesh.Full(testCluster(nodes))
}

func TestLayerFwdMonotoneInTokens(t *testing.T) {
	o := NewOracle(testCluster(1), model.LLaMA7B)
	prev := 0.0
	for _, tok := range []int64{128, 512, 2048, 8192, 32768} {
		got := o.LayerFwd(2, tok, 512)
		if got <= prev {
			t.Errorf("LayerFwd(%d tokens) = %g not increasing", tok, got)
		}
		prev = got
	}
}

func TestTPSpeedsUpLargeLayers(t *testing.T) {
	o := NewOracle(testCluster(1), model.LLaMA70B)
	t1 := o.LayerFwd(1, 16384, 1024)
	t8 := o.LayerFwd(8, 16384, 1024)
	if t8 >= t1 {
		t.Errorf("tp=8 (%g) should beat tp=1 (%g) on big shards", t8, t1)
	}
	// But the speedup must be sub-linear (efficiency loss).
	if t8 < t1/8 {
		t.Errorf("tp=8 speedup %.2f× is super-linear; efficiency model broken", t1/t8)
	}
}

func TestDecodeIsMemoryBound(t *testing.T) {
	o := NewOracle(testCluster(1), model.LLaMA70B)
	// Doubling the batch at small batch should barely change the step time
	// (weight traffic dominates).
	t2 := o.LayerDecode(8, 2, 1024)
	t4 := o.LayerDecode(8, 4, 1024)
	if t4 > 1.5*t2 {
		t.Errorf("decode time doubled with batch: %g -> %g; should be weight-IO bound", t2, t4)
	}
}

func TestCUDAGraphSpeedsUpDecode(t *testing.T) {
	on := NewOracle(testCluster(1), model.LLaMA7B)
	off := NewOracle(testCluster(1), model.LLaMA7B)
	off.UseCUDAGraph = false
	if a, b := on.LayerDecode(2, 4, 512), off.LayerDecode(2, 4, 512); a >= b {
		t.Errorf("CUDA graph decode %g should beat eager %g", a, b)
	}
	// Forward passes are unaffected.
	if a, b := on.LayerFwd(2, 4096, 512), off.LayerFwd(2, 4096, 512); a != b {
		t.Errorf("CUDA graph must not change prefill: %g vs %g", a, b)
	}
}

func TestAllReduceProperties(t *testing.T) {
	c := Comm{HW: testCluster(2)}
	if got := c.AllReduce(1<<20, 1, false); got != 0 {
		t.Errorf("single-rank all-reduce = %g, want 0", got)
	}
	small := c.AllReduce(1<<10, 4, false)
	big := c.AllReduce(1<<30, 4, false)
	if big <= small {
		t.Error("all-reduce not monotone in bytes")
	}
	intra := c.AllReduce(1<<26, 8, false)
	inter := c.AllReduce(1<<26, 8, true)
	if inter <= intra {
		t.Error("cross-node all-reduce should be slower")
	}
	// Tiny messages are latency/sync bound: cost grows with participants.
	if c.AllReduce(1<<10, 8, false) <= c.AllReduce(1<<10, 2, false) {
		t.Error("latency-bound all-reduce should grow with group size")
	}
}

func TestReduceScatterCheaperThanAllReduce(t *testing.T) {
	c := Comm{HW: testCluster(2)}
	if c.ReduceScatter(1<<28, 8, false) >= c.AllReduce(1<<28, 8, false) {
		t.Error("reduce-scatter moves half the all-reduce volume")
	}
}

func TestP2PAndBroadcast(t *testing.T) {
	c := Comm{HW: testCluster(2)}
	if c.P2P(1<<20, true) <= c.P2P(1<<20, false) {
		t.Error("cross-node P2P should be slower")
	}
	if c.Broadcast(0, false) <= 0 {
		t.Error("broadcast has a latency floor")
	}
	if c.OffloadTransfer(1<<30) <= c.OffloadTransfer(0) {
		t.Error("offload must take time beyond its setup latency")
	}
}

func genSpec(cfg model.Config, st parallel.Strategy, m mesh.Mesh) CallSpec {
	return CallSpec{
		Cfg: cfg, Type: dfg.Generate,
		Work:     dfg.Workload{Batch: 512, PromptLen: 1024, GenLen: 1024},
		Strategy: st, Mesh: m,
	}
}

func trainSpec(cfg model.Config, st parallel.Strategy, m mesh.Mesh) CallSpec {
	return CallSpec{
		Cfg: cfg, Type: dfg.Train,
		Work:     dfg.Workload{Batch: 512, PromptLen: 1024, GenLen: 1024, MiniBatches: 8},
		Strategy: st, Mesh: m,
	}
}

func TestAssembleBreakdownTotals(t *testing.T) {
	hw := testCluster(16)
	o := NewOracle(hw, model.LLaMA70B)
	comm := Comm{HW: hw}
	m := fullMesh(t, 16)
	st := parallel.Strategy{DP: 4, TP: 8, PP: 4, MicroBatches: 8}
	for _, spec := range []CallSpec{genSpec(model.LLaMA70B, st, m), trainSpec(model.LLaMA70B, st, m)} {
		b := AssembleCall(o, comm, spec)
		sum := b.Compute + b.TPComm + b.PPComm + b.DPComm + b.Bubble
		if math.Abs(b.Total()-sum) > 1e-12 {
			t.Errorf("Total() = %g, sum = %g", b.Total(), sum)
		}
		if b.Total() <= 0 {
			t.Errorf("%v call has non-positive cost", spec.Type)
		}
		if b.Compute <= 0 {
			t.Errorf("%v call has no compute", spec.Type)
		}
	}
}

// TestDecodePrefersModerateTPOverDeepPP reproduces the Fig. 10 (top) shape:
// for 70B decoding, TP=8/PP=4 with its latency-bound all-reduces loses to
// a plan with lower TP, more DP.
func TestDecodePrefersLowerTP(t *testing.T) {
	hw := testCluster(16)
	o := NewOracle(hw, model.LLaMA70B)
	comm := Comm{HW: hw}
	m := fullMesh(t, 16)
	heuristic := genSpec(model.LLaMA70B, parallel.Strategy{DP: 4, TP: 8, PP: 4, MicroBatches: 8}, m)
	searched := genSpec(model.LLaMA70B, parallel.Strategy{DP: 16, TP: 2, PP: 4, MicroBatches: 4}, m)
	th := AssembleCall(o, comm, heuristic).Total()
	ts := AssembleCall(o, comm, searched).Total()
	if ts >= th {
		t.Errorf("searched decode strategy (%.1fs) should beat heuristic (%.1fs)", ts, th)
	}
}

// TestTrainingMicroBatchesReduceBubble checks the pipeline model: with pp>1,
// more micro-batches shrink the relative bubble.
func TestTrainingMicroBatchesReduceBubble(t *testing.T) {
	hw := testCluster(16)
	o := NewOracle(hw, model.LLaMA70B)
	comm := Comm{HW: hw}
	m := fullMesh(t, 16)
	st1 := parallel.Strategy{DP: 4, TP: 2, PP: 16, MicroBatches: 1}
	st8 := parallel.Strategy{DP: 4, TP: 2, PP: 16, MicroBatches: 8}
	b1 := AssembleCall(o, comm, trainSpec(model.LLaMA70B, st1, m))
	b8 := AssembleCall(o, comm, trainSpec(model.LLaMA70B, st8, m))
	r1 := b1.Bubble / b1.Total()
	r8 := b8.Bubble / b8.Total()
	if r8 >= r1 {
		t.Errorf("bubble fraction should fall with micro-batches: mbs=1 %.2f, mbs=8 %.2f", r1, r8)
	}
}

// TestOverParallelizationPenalty reproduces the paper's core observation:
// running a small model's inference across the whole cluster is barely
// faster (or slower) than on a fraction of it, because per-GPU shards
// shrink and comm overheads grow.
func TestOverParallelizationPenalty(t *testing.T) {
	hw := testCluster(16)
	o := NewOracle(hw, model.LLaMA7B)
	comm := Comm{HW: hw}
	work := dfg.Workload{Batch: 512, PromptLen: 1024, GenLen: 1024}

	wide := CallSpec{Cfg: model.LLaMA7B, Type: dfg.Inference, Work: work,
		Strategy: parallel.Strategy{DP: 16, TP: 8, PP: 1, MicroBatches: 1}, Mesh: fullMesh(t, 16)}
	narrowMesh, _ := mesh.New(0, 16, 8)
	narrow := CallSpec{Cfg: model.LLaMA7B, Type: dfg.Inference, Work: work,
		Strategy: parallel.Strategy{DP: 8, TP: 2, PP: 1, MicroBatches: 1}, Mesh: narrowMesh}

	tWide := AssembleCall(o, comm, wide).Total()
	tNarrow := AssembleCall(o, comm, narrow).Total()
	// 8× more GPUs must yield clearly less than 8× speedup.
	if tNarrow/tWide > 6 {
		t.Errorf("scaling 16→128 GPUs gave %.1f× speedup; over-parallelization penalty missing", tNarrow/tWide)
	}
	// And decode over-parallelizes much worse than a forward pass: the same
	// GPU scaling on generation yields a smaller speedup than on inference.
	wideGen, narrowGen := wide, narrow
	wideGen.Type, narrowGen.Type = dfg.Generate, dfg.Generate
	genRatio := AssembleCall(o, comm, narrowGen).Total() / AssembleCall(o, comm, wideGen).Total()
	if genRatio >= tNarrow/tWide {
		t.Errorf("generation speedup %.1f× should trail inference speedup %.1f×", genRatio, tNarrow/tWide)
	}
}

func TestCallFLOPs(t *testing.T) {
	m := fullMesh(t, 2)
	st := parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 1}
	inf := CallSpec{Cfg: model.LLaMA7B, Type: dfg.Inference,
		Work: dfg.Workload{Batch: 512, PromptLen: 1024, GenLen: 1024}, Strategy: st, Mesh: m}
	tr := inf
	tr.Type = dfg.Train
	fi, ft := CallFLOPs(inf), CallFLOPs(tr)
	if fi <= 0 || ft <= 0 {
		t.Fatal("FLOPs must be positive")
	}
	if math.Abs(ft-3*fi) > 1e-9*ft {
		t.Errorf("train FLOPs %g, want 3× inference %g", ft, 3*fi)
	}
	gen := inf
	gen.Type = dfg.Generate
	if CallFLOPs(gen) <= 0 {
		t.Error("generation FLOPs must be positive")
	}
}

func TestBreakdownScaleAdd(t *testing.T) {
	b := Breakdown{Compute: 1, TPComm: 2, PPComm: 3, DPComm: 4, Bubble: 5}
	s := b.Scale(2)
	if s.Total() != 30 {
		t.Errorf("Scale(2).Total = %g, want 30", s.Total())
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 30 {
		t.Errorf("Add twice Total = %g, want 30", acc.Total())
	}
}

// TestMiniBatchesMultiplyFixedCosts: PPO mini-batches repeat the gradient
// sync and optimizer step, so 8 mini-batches cost more than 1 at equal
// total tokens.
func TestMiniBatchesMultiplyFixedCosts(t *testing.T) {
	hw := testCluster(16)
	o := NewOracle(hw, model.LLaMA70B)
	comm := Comm{HW: hw}
	m := fullMesh(t, 16)
	st := parallel.Strategy{DP: 4, TP: 8, PP: 4, MicroBatches: 4}
	one := trainSpec(model.LLaMA70B, st, m)
	one.Work.MiniBatches = 1
	eight := trainSpec(model.LLaMA70B, st, m)
	eight.Work.MiniBatches = 8
	t1 := AssembleCall(o, comm, one).Total()
	t8 := AssembleCall(o, comm, eight).Total()
	if t8 <= t1 {
		t.Errorf("8 mini-batches (%.1fs) should cost more than 1 (%.1fs)", t8, t1)
	}
}

func TestHeadFwdCriticFree(t *testing.T) {
	hw := testCluster(1)
	o := NewOracle(hw, model.LLaMA7B)
	comm := Comm{HW: hw}
	m, _ := mesh.New(0, 8, 8)
	st := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	actor := CallSpec{Cfg: model.LLaMA7B, Type: dfg.Inference,
		Work: dfg.Workload{Batch: 256, PromptLen: 1024, GenLen: 1024}, Strategy: st, Mesh: m}
	critic := actor
	critic.IsCritic = true
	if AssembleCall(o, comm, critic).Total() >= AssembleCall(o, comm, actor).Total() {
		t.Error("critic inference skips the 128k-vocab head and should be cheaper")
	}
}
