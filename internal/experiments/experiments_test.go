package experiments

import (
	"strings"
	"testing"

	"realhf/internal/model"
)

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{"8030261248", "14001525760", "35321028608", "70553706496"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing exact param count %s", want)
		}
	}
}

func TestPaperSettingWeakScaling(t *testing.T) {
	s16 := PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	if s16.Batch != 512 {
		t.Errorf("16-GPU batch = %d, want 512", s16.Batch)
	}
	s128 := PaperSetting(16, model.LLaMA70B, model.LLaMA7B)
	if s128.Batch != 4096 {
		t.Errorf("128-GPU batch = %d, want 4096", s128.Batch)
	}
}

func TestWithContextKeepsTokenBudget(t *testing.T) {
	s := PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	long := s.WithContext(8192)
	if long.Batch != 512/4 {
		t.Errorf("8192-ctx batch = %d, want 128", long.Batch)
	}
	if long.PromptLen+long.GenLen != 8192 {
		t.Errorf("ctx = %d, want 8192", long.PromptLen+long.GenLen)
	}
	if got := long.Batch * (long.PromptLen + long.GenLen); got != s.Batch*(s.PromptLen+s.GenLen) {
		t.Errorf("token budget changed: %d", got)
	}
}

func TestFig7RealWinsAtSmallScale(t *testing.T) {
	rows, out, err := Fig7(model.LLaMA7B, []int{16}, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 7") {
		t.Error("missing report header")
	}
	var realTP float64
	best := 0.0
	for _, r := range rows {
		if r.System == "real" {
			realTP = r.PFLOPs
		} else if !r.OOM && r.PFLOPs > best {
			best = r.PFLOPs
		}
	}
	if realTP <= 0 {
		t.Fatal("ReaL row missing")
	}
	if realTP < best {
		t.Errorf("ReaL (%.2f PF/s) lost to a baseline (%.2f PF/s)", realTP, best)
	}
}

func TestFig8SearchBeatsHeuristic(t *testing.T) {
	combos := [][2]model.Config{{model.LLaMA7B, model.LLaMA7B}}
	rows, _, err := Fig8(combos, 2, []int{2048, 8192}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Improvement < 0 {
			t.Errorf("ctx %d: searched plan lost to heuristic by %.0f%%", r.CtxLen, -100*r.Improvement)
		}
	}
	// The paper's long-context claim: the gain grows at ctx 8192.
	if rows[1].Improvement < rows[0].Improvement {
		t.Logf("warning: ctx-8192 gain %.0f%% below ctx-2048 gain %.0f%% at this tiny scale",
			100*rows[1].Improvement, 100*rows[0].Improvement)
	}
}

func TestFig9ProgressiveMonotone(t *testing.T) {
	s := PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	stages, out, err := Fig9(s, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 5 {
		t.Fatalf("got %d stages, want 5", len(stages))
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].WallTime > stages[i-1].WallTime*1.02 {
			t.Errorf("stage %q (%.1fs) regressed from %q (%.1fs)",
				stages[i].Name, stages[i].WallTime, stages[i-1].Name, stages[i-1].WallTime)
		}
	}
	if !strings.Contains(out, "CUDAGraph") {
		t.Error("missing CUDAGraph stage in report")
	}
}

func TestFig2Report(t *testing.T) {
	s := PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	out, err := Fig2(s, 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total") {
		t.Error("Fig 2 report missing total improvement")
	}
}

func TestTables2to6Quick(t *testing.T) {
	out, cases, err := Tables2to6(1200, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		// Searched end-to-end must not lose to the heuristic.
		if c.SearchedE2E[0] > c.HeuristicE2E[0] {
			t.Errorf("%s: searched %.1fs worse than heuristic %.1fs",
				c.Name, c.SearchedE2E[0], c.HeuristicE2E[0])
		}
		// Disabling CUDA graphs slows both down (Table 6's two bottom rows).
		if c.SearchedE2E[1] <= c.SearchedE2E[0] {
			t.Errorf("%s: no-CUDAGraph run should be slower", c.Name)
		}
	}
	for _, want := range []string{"Table 2", "Table 6", "End2End", "ActorGen"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFig10Traces(t *testing.T) {
	out := Fig10(16)
	for _, want := range []string{"TP=2", "TP=8", "All-Reduce", "Decoding"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 10 output missing %q", want)
		}
	}
}

func TestFig11ComputeFractionImproves(t *testing.T) {
	combos := [][2]model.Config{{model.LLaMA7B, model.LLaMA7B}}
	rows, _, err := Fig11(combos, 2, 1200)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Real.Compute < r.Heur.Compute {
		t.Errorf("ReaL compute fraction %.2f below heuristic %.2f", r.Real.Compute, r.Heur.Compute)
	}
}

func TestFig12EstimatorAccuracy(t *testing.T) {
	points, _, err := Fig12([]int{2}, 800)
	if err != nil {
		t.Fatal(err)
	}
	// (heuristic, searched) × (serial, overlap) semantics.
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, pt := range points {
		if pt.RelError > 0.25 {
			t.Errorf("%s: estimator off by %.0f%% (>25%%)", pt.Label, 100*pt.RelError)
		}
	}
	// Ordering preservation per semantics: if the estimator ranks searched
	// below heuristic, the real runs must agree. Points are ordered
	// heuristic-serial, heuristic-overlap, searched-serial, searched-overlap.
	for i := 0; i < 2; i++ {
		heur, searched := points[i], points[i+2]
		if searched.Est < heur.Est && searched.Real > heur.Real {
			t.Errorf("estimator inverted the plan ordering (%s vs %s)", searched.Label, heur.Label)
		}
	}
}

func TestFig13Converges(t *testing.T) {
	curves, _, err := Fig13(600, []int{2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("got %d curves, want 4", len(curves))
	}
	for _, c := range curves {
		if c.FinalRatio() > 1.0+1e-9 {
			t.Errorf("%s: search ended worse than its seed (ratio %.3f)", c.Label, c.FinalRatio())
		}
	}
}

func TestFig15NearOptimal(t *testing.T) {
	results, _, err := Fig15(2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		gap := (r.MCMCBest - r.OptimalCost) / r.OptimalCost
		if gap > 0.10 {
			t.Errorf("%s: MCMC %.1f%% above optimum (paper: <5%% in seconds)", r.Label, 100*gap)
		}
	}
}

func TestFig17StrongScaling(t *testing.T) {
	rows, _, err := Fig17([]model.Config{model.LLaMA7B}, []int{1, 2, 4}, 700)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Throughput must grow with devices; static utilization must fall.
	for i := 1; i < len(rows); i++ {
		if rows[i].PFLOPs <= rows[i-1].PFLOPs {
			t.Errorf("throughput fell from %.2f to %.2f when scaling %d->%d GPUs",
				rows[i-1].PFLOPs, rows[i].PFLOPs, rows[i-1].GPUs, rows[i].GPUs)
		}
		if rows[i].StaticUtil >= rows[i-1].StaticUtil {
			t.Errorf("static utilization rose from %.2f to %.2f with more GPUs",
				rows[i-1].StaticUtil, rows[i].StaticUtil)
		}
	}
}
