package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// smallRun runs a workload at about 1% of the benchmark's fixed operation
// counts, with a near-zero timed phase.
func smallRun(t *testing.T, w workload, seed int64, traced bool) (*runResult, *tracer) {
	t.Helper()
	rc := &runConfig{seed: seed, seconds: 10 * time.Millisecond, scale: 0.01, tmpDir: t.TempDir()}
	if traced {
		rc.tr = newTracer(50)
	}
	res, err := w.run(rc)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res, rc.tr
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, _ := smallRun(t, w, 7, false)
			b, _ := smallRun(t, w, 7, false)
			for _, r := range []*runResult{a, b} {
				if r.Failed != 0 || r.Metrics["fail_frac"] != 0 {
					t.Fatalf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
				}
				if missing := checkReported(r); len(missing) > 0 {
					t.Fatalf("missing metrics: %v", missing)
				}
				for name := range r.Metrics {
					if m, ok := metricByName(name); !ok || m.Unit == "" {
						t.Errorf("metric %s has no unit in the table", name)
					}
				}
				if _, err := resultLine(r); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range metrics {
				if !m.Virtual || !m.reports(w.name, false) {
					continue
				}
				if a.Metrics[m.Name] != b.Metrics[m.Name] {
					t.Errorf("%s differs between runs with one seed: %v vs %v", m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
				}
			}
		})
	}
}

func TestTracedRunSpans(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, tr := smallRun(t, w, 3, true)
			if res.Failed != 0 {
				t.Fatalf("%d operations failed: %v", res.Failed, res.Failures)
			}
			if missing := checkReported(res); len(missing) > 0 {
				t.Fatalf("missing metrics: %v", missing)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var ct chromeTrace
			if err := json.Unmarshal(data, &ct); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			checkSpanTree(t, ct.TraceEvents)
		})
	}
}

// eps absorbs the rounding of nanosecond times printed as float
// microseconds.
const eps = 0.002

// checkSpanTree checks that every child lies inside its parent and shares
// its operation id, and that self times are non-negative and sum to no
// more than their operation's span.
func checkSpanTree(t *testing.T, events []chromeEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("trace has no spans")
	}
	byID := map[float64]chromeEvent{}
	for _, e := range events {
		byID[e.Args["id"].(float64)] = e
	}
	children := map[float64][][2]float64{}
	for _, e := range events {
		parent := e.Args["parent"].(float64)
		if parent == 0 {
			if e.Name != "op" {
				t.Errorf("root span %q is not an operation", e.Name)
			}
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("%s: parent %v not in the trace", e.Name, parent)
		}
		if e.Args["op"] != p.Args["op"] {
			t.Errorf("%s belongs to operation %v, its parent %s to %v", e.Name, e.Args["op"], p.Name, p.Args["op"])
		}
		if e.Ts < p.Ts-eps || e.Ts+e.Dur > p.Ts+p.Dur+eps {
			t.Errorf("%s [%v, %v] pokes out of %s [%v, %v]", e.Name, e.Ts, e.Ts+e.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
		children[parent] = append(children[parent], [2]float64{e.Ts, e.Ts + e.Dur})
	}
	selfSum := map[float64]float64{}
	for _, e := range events {
		self := e.Dur - union(children[e.Args["id"].(float64)])
		if self < -eps {
			t.Errorf("%s has negative self time %v", e.Name, self)
		}
		selfSum[e.Args["op"].(float64)] += self
	}
	for _, e := range events {
		if e.Name == "op" && selfSum[e.Args["op"].(float64)] > e.Dur+eps*float64(len(events)) {
			t.Errorf("operation %v: self times sum to %v, more than its %v", e.Args["op"], selfSum[e.Args["op"].(float64)], e.Dur)
		}
	}
}

func union(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi float64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else {
			hi = math.Max(hi, x[1])
		}
	}
	return total + hi - lo
}

// TestManifestMatchesTable keeps BENCHMARK.json and the metric table in
// step: the manifest's end-to-end and per-layer metrics are the table's.
func TestManifestMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("manifest workloads %v, benchmark runs %v", names, allWorkloads)
	}
	var e2e, layer []string
	for _, m := range manifest.EndToEnd {
		e2e = append(e2e, m.Name)
		if d, ok := metricByName(m.Name); !ok || d.Kind != endToEnd || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("manifest end_to_end %+v does not match the table's %+v", m, d)
		}
	}
	for _, m := range manifest.PerLayer {
		layer = append(layer, m.Name)
		if d, ok := metricByName(m.Name); !ok || d.Kind != perLayer || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("manifest per_layer %+v does not match the table's %+v", m, d)
		}
	}
	var wantE2E, wantLayer []string
	for _, m := range metrics {
		switch m.Kind {
		case endToEnd:
			wantE2E = append(wantE2E, m.Name)
		case perLayer:
			wantLayer = append(wantLayer, m.Name)
		}
	}
	if !reflect.DeepEqual(e2e, wantE2E) || !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("manifest metrics %v / %v, table %v / %v", e2e, layer, wantE2E, wantLayer)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4) and statistics.median, so spreads
// printed here match the ones computed from BENCHMARK.json runs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3, 2, 4}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 4, 7.5, 2}, 2, 4, 7.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.05}
	tight := []float64{10, 10.1, 10.2, 10.1, 10}
	cases := []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lat, tight, []float64{10.3, 10.4, 10.2, 10.3, 10.4}, "ok"},
		{lat, tight, []float64{11.5, 11.6, 11.4, 11.5, 11.6}, "REGRESSED"},
		{lat, tight, []float64{8, 12, 10, 9, 11}, "unresolved"},
		{lat, []float64{10, 12, 14, 11, 13}, []float64{5, 6, 7, 6, 5}, "better"},
		{metricDef{Name: "plan_cost_s", Better: "lower", Bound: 0.01, Virtual: true}, tight, tight, "identical"},
		{metricDef{Name: "fail_frac", Better: "lower"}, []float64{0, 0}, []float64{0, 0.01}, "REGRESSED"},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
