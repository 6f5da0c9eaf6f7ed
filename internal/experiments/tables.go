package experiments

import (
	"fmt"
	"strings"

	"realhf/internal/core"
	"realhf/internal/model"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// Table1 renders the model-configuration table (paper Table 1), with the
// parameter counts computed — not transcribed — from the architecture.
func Table1() string {
	var b strings.Builder
	b.WriteString(header("Table 1: LLaMA-3 model configurations"))
	fmt.Fprintf(&b, "%-24s %12s %12s %12s %12s\n", "Identifier", "7B", "13B", "34B", "70B")
	rows := []struct {
		name string
		get  func(model.Config) int64
	}{
		{"HiddenSize", func(c model.Config) int64 { return int64(c.HiddenSize) }},
		{"IntermediateSize", func(c model.Config) int64 { return int64(c.IntermediateSize) }},
		{"NumLayers", func(c model.Config) int64 { return int64(c.NumLayers) }},
		{"NumAttentionHeads", func(c model.Config) int64 { return int64(c.NumAttentionHeads) }},
		{"NumKVHeads", func(c model.Config) int64 { return int64(c.NumKVHeads) }},
		{"VocabSize", func(c model.Config) int64 { return int64(c.VocabSize) }},
		{"MaxPositionEmbeddings", func(c model.Config) int64 { return int64(c.MaxPositionEmbeddings) }},
		{"TotalParamCount", model.Config.Params},
		{"ParamCount w/o OutEmbd", model.Config.ParamsNoOutputEmbedding},
	}
	all := model.All()
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s", r.name)
		for _, cfg := range all {
			fmt.Fprintf(&b, " %12d", r.get(cfg))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BreakdownCase is one column of Table 6: a setting with its searched and
// heuristic plans and their executed wall times.
type BreakdownCase struct {
	Name           string
	Searched       *core.Plan
	Heuristic      *core.Plan
	SearchedTimes  map[string]float64 // ±CUDAGraph call times
	HeuristicTimes map[string]float64
	SearchedE2E    [2]float64 // [with CUDAGraph, without]
	HeuristicE2E   [2]float64
	SearchedGen    [2]float64
	HeuristicGen   [2]float64
	// SearchedE2EOverlap / HeuristicE2EOverlap are the end-to-end times
	// with CUDA graphs on and the runtime's communication overlap enabled
	// (the ±overlap rows of the Table 6 analogue).
	SearchedE2EOverlap  float64
	HeuristicE2EOverlap float64
	// OverlapSearched is the plan found when the search itself scores
	// candidates under the overlapped cost semantics (same seed and step
	// budget as Searched, warm-started from it), and OverlapSearchedE2E its
	// overlapped-runtime end-to-end time — the search-side ±overlap row.
	OverlapSearched    *core.Plan
	OverlapSearchedE2E float64
}

// RunBreakdownCase searches and measures one Table 6 column.
func RunBreakdownCase(name string, s Setting, steps int, seed int64) (*BreakdownCase, error) {
	pr := NewProblem(s)
	res, _, err := pr.SearchPlan(steps, seed)
	if err != nil {
		return nil, err
	}
	heur, err := pr.HeuristicPlan()
	if err != nil {
		return nil, err
	}
	bc := &BreakdownCase{Name: name, Searched: res.Plan, Heuristic: heur}
	for i, graph := range []bool{true, false} {
		sRep, err := runtime.Run(res.Plan, runtime.Options{UseCUDAGraph: graph})
		if err != nil {
			return nil, err
		}
		hRep, err := runtime.Run(heur, runtime.Options{UseCUDAGraph: graph})
		if err != nil {
			return nil, err
		}
		bc.SearchedE2E[i] = sRep.MakespanV
		bc.HeuristicE2E[i] = hRep.MakespanV
		bc.SearchedGen[i] = sRep.CallTimes["ActorGen"]
		bc.HeuristicGen[i] = hRep.CallTimes["ActorGen"]
		if graph {
			bc.SearchedTimes = sRep.CallTimes
			bc.HeuristicTimes = hRep.CallTimes
		}
	}
	sOv, err := runtime.Run(res.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		return nil, err
	}
	hOv, err := runtime.Run(heur, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		return nil, err
	}
	bc.SearchedE2EOverlap = sOv.MakespanV
	bc.HeuristicE2EOverlap = hOv.MakespanV
	resOv, _, err := pr.Solve(true, search.Options{
		MaxSteps: steps, Seed: seed, SeedCandidates: []*core.Plan{res.Plan},
	})
	if err != nil {
		return nil, err
	}
	oOv, err := runtime.Run(resOv.Plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		return nil, err
	}
	bc.OverlapSearched = resOv.Plan
	bc.OverlapSearchedE2E = oOv.MakespanV
	return bc, nil
}

// Tables2to6 regenerates the plan listings of Tables 2–5 and the wall-time
// breakdown of Table 6 for the paper's two representative cases
// (7B actor + 7B critic on 2 nodes; 70B actor + 7B critic on 16 nodes).
// quick shrinks the large case to 4 nodes with a 34B actor so tests finish
// fast; the CLI uses quick=false.
func Tables2to6(steps int, quick bool) (string, []*BreakdownCase, error) {
	small := PaperSetting(2, model.LLaMA7B, model.LLaMA7B)
	bigNodes, bigActor := 16, model.LLaMA70B
	if quick {
		bigNodes, bigActor = 4, model.LLaMA34B
	}
	big := PaperSetting(bigNodes, bigActor, model.LLaMA7B)

	smallCase, err := RunBreakdownCase(fmt.Sprintf("%s+%s", small.Actor.Name, small.Critic.Name), small, steps, 1)
	if err != nil {
		return "", nil, err
	}
	bigCase, err := RunBreakdownCase(fmt.Sprintf("%s+%s", big.Actor.Name, big.Critic.Name), big, steps, 2)
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	cases := []*BreakdownCase{bigCase, smallCase}
	tableNo := 2
	for _, c := range cases {
		b.WriteString(header(fmt.Sprintf("Table %d: %s searched plan", tableNo, c.Name)))
		b.WriteString(c.Searched.Table(c.SearchedTimes))
		b.WriteString("\n")
		tableNo++
		b.WriteString(header(fmt.Sprintf("Table %d: %s heuristic plan", tableNo, c.Name)))
		b.WriteString(c.Heuristic.Table(c.HeuristicTimes))
		b.WriteString("\n")
		tableNo++
	}
	b.WriteString(header("Table 6: RLHF wall-time breakdown (seconds)"))
	fmt.Fprintf(&b, "%-28s", "Time (s)")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10s %10s", c.Name+" ReaL", "Heuristic")
	}
	b.WriteString("\n")
	callOrder := []string{"ActorGen", "RewInf", "RefInf", "CriticInf", "CriticTrain", "ActorTrain"}
	for _, call := range callOrder {
		fmt.Fprintf(&b, "%-28s", call)
		for _, c := range cases {
			fmt.Fprintf(&b, " %10.1f %10.1f", c.SearchedTimes[call], c.HeuristicTimes[call])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-28s", "ActorGen (w/o CUDAGraph)")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10.1f %10.1f", c.SearchedGen[1], c.HeuristicGen[1])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "End2End (with CUDAGraph)")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10.1f %10.1f", c.SearchedE2E[0], c.HeuristicE2E[0])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "End2End (w/o CUDAGraph)")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10.1f %10.1f", c.SearchedE2E[1], c.HeuristicE2E[1])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "End2End (+OverlapComm)")
	for _, c := range cases {
		fmt.Fprintf(&b, " %10.1f %10.1f", c.SearchedE2EOverlap, c.HeuristicE2EOverlap)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "End2End (+OverlapSearch)")
	for _, c := range cases {
		// Searched under overlapped costs; the heuristic column repeats the
		// overlapped heuristic run (no search to make overlap-aware).
		fmt.Fprintf(&b, " %10.1f %10.1f", c.OverlapSearchedE2E, c.HeuristicE2EOverlap)
	}
	b.WriteString("\n")
	return b.String(), cases, nil
}
