package experiments

import (
	"strings"
	"testing"

	"realhf/internal/model"
)

func TestAblationNoRealloc(t *testing.T) {
	rows, out, err := AblationNoRealloc(2, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.FullPFLOPs <= 0 || r.ConstraintPFLOPs <= 0 {
			t.Errorf("%s: non-positive throughput", r.Setting)
		}
		// The full planner may never lose to its own restricted space.
		if r.Advantage < -0.02 {
			t.Errorf("%s: realloc-free plan beat the full search by %.0f%%",
				r.Setting, -100*r.Advantage)
		}
	}
	if !strings.Contains(out, "Ablation") {
		t.Error("missing report header")
	}
}

func TestAblationOverlapSearch(t *testing.T) {
	rows, out, err := AblationOverlapSearch(2, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SerialSearchedE2E <= 0 || r.OverlapSearchedE2E <= 0 {
			t.Errorf("%s: non-positive makespan", r.Setting)
		}
		// The acceptance bar: searched under the objective the runtime
		// executes, the plan can never run slower on that runtime than the
		// serialized-searched plan (the overlap-aware solve warm-starts
		// from it). The guarantee is exact in estimator space, and the
		// runtime executes the estimator's timeline.
		if r.OverlapSearchedE2E > r.SerialSearchedE2E {
			t.Errorf("%s: overlap-aware searched plan slower on the overlapped runtime (%.2fs > %.2fs)",
				r.Setting, r.OverlapSearchedE2E, r.SerialSearchedE2E)
		}
	}
	if !strings.Contains(out, "overlap-aware search") {
		t.Error("missing report header")
	}
}

func TestAblationOffload(t *testing.T) {
	row, out, err := AblationOffload(400)
	if err != nil {
		t.Fatal(err)
	}
	if !row.DefaultOOM {
		t.Errorf("default search found a feasible plan (%.1f GB); the workload is not memory-constrained enough",
			row.DefaultMaxMemGB)
	}
	if row.OffloadOOM {
		t.Errorf("offload-aware search still infeasible at %.1f GB peak", row.OffloadMaxMemGB)
	}
	if row.OffloadedCalls == 0 {
		t.Error("feasible plan parks no calls in host memory")
	}
	if row.OffloadMaxMemGB >= row.DefaultMaxMemGB {
		t.Errorf("offload plan peak %.1f GB not below default's %.1f GB",
			row.OffloadMaxMemGB, row.DefaultMaxMemGB)
	}
	if row.E2E <= 0 {
		t.Errorf("feasible plan did not execute: E2E %.2fs", row.E2E)
	}
	if !strings.Contains(out, "searched plan dimension") {
		t.Error("missing report header")
	}
}

func TestAblationCrossIter(t *testing.T) {
	// A critic larger than the actor makes the critic-side tail spill past
	// the iteration boundary — the slack cross-iteration overlap exploits.
	s := PaperSetting(2, model.LLaMA7B, model.LLaMA13B)
	single, double, out, err := AblationCrossIter(s, 900)
	if err != nil {
		t.Fatal(err)
	}
	if double >= 2*single {
		t.Errorf("2 iterations (%.1fs) should beat 2×1 iteration (%.1fs): no overlap found",
			double, 2*single)
	}
	if double <= single {
		t.Errorf("2 iterations (%.1fs) cannot be faster than 1 (%.1fs)", double, single)
	}
	if !strings.Contains(out, "overlap") {
		t.Error("missing report body")
	}
}

func TestRoleCandidatesNonEmpty(t *testing.T) {
	pr := NewProblem(PaperSetting(1, model.LLaMA7B, model.LLaMA7B))
	for _, role := range []string{"actor", "critic", "ref", "reward"} {
		if got := len(RoleCandidates(pr, role)); got == 0 {
			t.Errorf("role %q has no shared candidates", role)
		}
	}
}

func TestEnumerateAssignmentsLegal(t *testing.T) {
	pr := NewProblem(PaperSetting(2, model.LLaMA7B, model.LLaMA7B))
	all := EnumerateAssignments(pr.Cluster)
	if len(all) == 0 {
		t.Fatal("no assignments enumerated")
	}
	for _, a := range all {
		if err := a.Mesh.Validate(); err != nil {
			t.Fatalf("illegal mesh in enumeration: %v", err)
		}
		if a.Strategy.WorldSize() != a.Mesh.NumGPUs() {
			t.Fatalf("strategy %v does not fill mesh %v", a.Strategy, a.Mesh)
		}
	}
}
