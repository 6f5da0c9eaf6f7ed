package experiments

import (
	"fmt"
	"strings"

	"realhf/internal/model"
	"realhf/internal/parallel"
	"realhf/internal/trace"
)

// Fig10 regenerates the simplified kernel traces: a 70B decoding layer and a
// 70B training-forward layer, each under ReaL's preferred strategy and the
// heuristic's (paper Fig. 10).
func Fig10(nodes int) string {
	hw := PaperSetting(nodes, model.LLaMA70B, model.LLaMA7B).Cluster()
	var b strings.Builder
	b.WriteString(header("Figure 10: simplified kernel traces, 70B layer"))

	b.WriteString("Decoding phase (batch 2 per rank, position 2048):\n")
	low := trace.DecodeLayerTrace(hw, model.LLaMA70B, parallel.New(4, 2, 16), 2, 2048, true)
	high := trace.DecodeLayerTrace(hw, model.LLaMA70B, parallel.New(4, 8, 4), 2, 2048, true)
	fmt.Fprintf(&b, "  ReaL      TP=2 PP=16 : %s  (layer total %.0fus)\n", low, low.Total()*1e6)
	fmt.Fprintf(&b, "  Heuristic TP=8 PP=4  : %s  (layer total %.0fus)\n", high, high.Total()*1e6)

	b.WriteString("Training forward phase (16k tokens per micro-batch):\n")
	lowT := trace.TrainLayerTrace(hw, model.LLaMA70B, parallel.New(16, 2, 4), 16384, 1024)
	highT := trace.TrainLayerTrace(hw, model.LLaMA70B, parallel.New(4, 8, 4), 16384, 1024)
	fmt.Fprintf(&b, "  ReaL      TP=2 PP=4  : %s  (layer total %.1fms)\n", lowT, lowT.Total()*1e3)
	fmt.Fprintf(&b, "  Heuristic TP=8 PP=4  : %s  (layer total %.1fms)\n", highT, highT.Total()*1e3)
	return b.String()
}

// Fig11Row is one pair of stacked bars of the GPU-time decomposition.
type Fig11Row struct {
	Combo string
	Real  trace.Fractions
	Heur  trace.Fractions
}

// Fig11 regenerates the CUDA-kernel time statistics of an RLHF iteration for
// ReaL vs the heuristic across size combinations (paper Fig. 11): ReaL
// raises the compute fraction by cutting collective/P2P overhead and idle
// time.
func Fig11(combos [][2]model.Config, nodes, steps int) ([]Fig11Row, string, error) {
	var rows []Fig11Row
	for i, combo := range combos {
		s := PaperSetting(nodes, combo[0], combo[1])
		pr := NewProblem(s)
		heur, err := pr.HeuristicPlan()
		if err != nil {
			return nil, "", err
		}
		hres, err := pr.Est.Evaluate(heur)
		if err != nil {
			return nil, "", err
		}
		hf, err := trace.PlanFractions(pr.Est, heur, hres)
		if err != nil {
			return nil, "", err
		}
		res, _, err := pr.SearchPlan(steps, int64(100+i))
		if err != nil {
			return nil, "", err
		}
		rres, err := pr.Est.Evaluate(res.Plan)
		if err != nil {
			return nil, "", err
		}
		rf, err := trace.PlanFractions(pr.Est, res.Plan, rres)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig11Row{Combo: combo[0].Name + "+" + combo[1].Name, Real: rf, Heur: hf})
	}
	var b strings.Builder
	b.WriteString(header("Figure 11: GPU-time breakdown, ReaL vs heuristic"))
	fmt.Fprintf(&b, "%-12s %-44s %-44s\n", "Combo", "ReaL", "Heuristic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-44s %-44s\n", r.Combo, r.Real, r.Heur)
	}
	return rows, b.String(), nil
}
