package experiments

import (
	"strings"
	"testing"
)

func TestLimitationStudy(t *testing.T) {
	rows, out, err := LimitationStudy(2, 800, []float64{0, 0.5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// With no spread, the realized workload equals the planned one, and the
	// runtime executes the oracle estimator's own timeline: the estimate is
	// exact.
	if rows[0].EstimateErr != 0 {
		t.Errorf("zero-spread estimate error %.3g%%, want 0", 100*rows[0].EstimateErr)
	}
	// With a large spread, the stale estimate degrades — the paper's §7
	// predictability limitation.
	if rows[1].EstimateErr <= rows[0].EstimateErr {
		t.Errorf("estimate error should grow with workload variance: %.3f vs %.3f",
			rows[1].EstimateErr, rows[0].EstimateErr)
	}
	// Re-planning can only help (up to search noise).
	if rows[1].Regret < -0.05 {
		t.Errorf("re-planned run slower than the stale plan by %.1f%%", -100*rows[1].Regret)
	}
	if !strings.Contains(out, "Limitation") {
		t.Error("missing report header")
	}
}
