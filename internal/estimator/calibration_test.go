package estimator

import (
	"math"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func calibPlan(t *testing.T) (*core.Plan, *Estimator) {
	t.Helper()
	cluster := hardware.DefaultCluster(1)
	g := dfg.BuildPPO(dfg.Spec{Batch: 64, PromptLen: 256, GenLen: 256, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	return p, NewOracle(cluster, p.Models, true)
}

// TestCalibrationIdentity: a nil calibration, a unit-factor calibration and
// the historical estimator agree byte for byte.
func TestCalibrationIdentity(t *testing.T) {
	p, e := calibPlan(t)
	base, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c := NewCalibration(map[string]float64{"ActorGen": 1}); c != nil {
		t.Fatalf("unit-factor calibration must collapse to nil, got %v", c.Factors())
	}
	e.Calib = NewCalibration(nil)
	calibrated, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.TimeCost != base.TimeCost || calibrated.Cost != base.Cost {
		t.Fatalf("nil calibration changed the estimate: %v vs %v", calibrated.TimeCost, base.TimeCost)
	}
	if e.CalibrationKey() != "" {
		t.Fatalf("nil calibration key = %q, want empty", e.CalibrationKey())
	}
}

// TestCalibrationScalesCallDurations: a per-call factor rescales exactly that
// call's duration and flows into the simulated makespan.
func TestCalibrationScalesCallDurations(t *testing.T) {
	p, e := calibPlan(t)
	base, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Calib = NewCalibration(map[string]float64{"ActorGen": 2})
	scaled, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGen := 2 * base.CallTimes["ActorGen"]
	if got := scaled.CallTimes["ActorGen"]; got < wantGen*0.999 || got > wantGen*1.001 {
		t.Fatalf("ActorGen duration = %v, want %v", got, wantGen)
	}
	if scaled.CallTimes["RefInf"] != base.CallTimes["RefInf"] {
		t.Fatalf("uncalibrated call rescaled: %v vs %v",
			scaled.CallTimes["RefInf"], base.CallTimes["RefInf"])
	}
	if scaled.TimeCost <= base.TimeCost {
		t.Fatalf("slowing generation must slow the plan: %v vs %v", scaled.TimeCost, base.TimeCost)
	}
}

// TestCalibrationKeyCanonical: key is order-independent and distinguishes
// factor sets.
func TestCalibrationKeyCanonical(t *testing.T) {
	a := NewCalibration(map[string]float64{"A": 1.5, "B": 0.5})
	b := NewCalibration(map[string]float64{"B": 0.5, "A": 1.5})
	if a.Key() != b.Key() || a.Key() == "" {
		t.Fatalf("equal factor sets must share a key: %q vs %q", a.Key(), b.Key())
	}
	c := NewCalibration(map[string]float64{"A": 1.25, "B": 0.5})
	if c.Key() == a.Key() {
		t.Fatal("changed factor must change the key")
	}
	if got := c.Factor("Z"); got != 1 {
		t.Fatalf("unknown call factor = %v, want 1", got)
	}
	if NewCalibration(map[string]float64{"A": -1}) != nil {
		t.Fatal("negative factor must be rejected")
	}
}

// TestCheckFactor: the one calibration-factor check rejects every value
// that is not a positive finite multiplier, and NewCalibration refuses a
// factor set containing one.
func TestCheckFactor(t *testing.T) {
	for _, tc := range []struct {
		f  float64
		ok bool
	}{
		{0, false}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false},
		{0.5, true}, {1, true}, {3, true},
	} {
		err := CheckFactor("ActorGen", tc.f)
		if (err == nil) != tc.ok {
			t.Errorf("CheckFactor(%v) = %v, want ok=%t", tc.f, err, tc.ok)
		}
		if c := NewCalibration(map[string]float64{"ActorGen": tc.f}); !tc.ok && c != nil {
			t.Errorf("NewCalibration accepted factor %v", tc.f)
		}
	}
}
