package experiments

import (
	"fmt"
	"strings"

	"realhf/internal/estimator"
	"realhf/internal/model"
)

// Fig17Row is one point of the strong-scaling study.
type Fig17Row struct {
	ActorName  string
	GPUs       int
	PFLOPs     float64
	StaticUtil float64
}

// Fig17 regenerates the strong-scaling analysis: throughput and static
// memory utilization for fixed problem sizes (batch 512, ctx 2048) across
// increasing device counts (paper Fig. 17). The paper's shape: larger models
// scale super-linearly while memory is tight, small models plateau on
// generation overheads, and static-memory utilization below ~60% signals
// diminishing returns from more GPUs.
func Fig17(actors []model.Config, nodeCounts []int, steps int) ([]Fig17Row, string, error) {
	var rows []Fig17Row
	for _, actor := range actors {
		for _, nodes := range nodeCounts {
			s := PaperSetting(nodes, actor, model.LLaMA7B)
			s.Batch = 512 // strong scaling: fixed problem size
			pr := NewProblem(s)
			res, _, err := pr.SearchPlan(steps, int64(nodes*1000))
			if err != nil {
				return nil, "", err
			}
			if res.Estimate.OOM {
				// The problem does not fit at this scale; skip the point as
				// the paper does for infeasible configurations.
				continue
			}
			_, tp, err := pr.Measure(res.Plan)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, Fig17Row{
				ActorName:  actor.Name,
				GPUs:       nodes * 8,
				PFLOPs:     tp,
				StaticUtil: estimator.ModelStateUtilization(res.Plan),
			})
		}
	}
	var b strings.Builder
	b.WriteString(header("Figure 17: strong scaling (fixed batch 512, ctx 2048)"))
	fmt.Fprintf(&b, "%-7s %6s %12s %12s\n", "Actor", "GPUs", "PFLOP/s", "StaticUtil")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %6d %12.2f %11.0f%%\n", r.ActorName, r.GPUs, r.PFLOPs, 100*r.StaticUtil)
	}
	return rows, b.String(), nil
}
