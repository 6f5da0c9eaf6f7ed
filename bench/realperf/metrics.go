package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Metric kinds.
const (
	// endToEnd metrics are reported by every workload and gated by the root
	// BENCHMARK.json (end_to_end).
	endToEnd = iota
	// workloadOnly metrics are end-to-end metrics that only some workloads
	// have (hit/miss split, time to target, virtual campaign time), that are
	// zero on every correct run (failure share), or whose run-to-run spread
	// on a small shared machine exceeds the largest bound BENCHMARK.json
	// allows (tail latencies, peak RSS). They are printed and gated by
	// -compare.
	workloadOnly
	// perLayer metrics come from the traced run (BENCHMARK.json per_layer).
	// A workload that never reaches a layer reports 0 for it.
	perLayer
)

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the largest worsening of the median, as a share of it, that
	// still counts as no regression (end-to-end metrics only).
	Bound float64
	Kind  int
	// Workloads lists who reports a workloadOnly metric.
	Workloads []string
	// Virtual metrics are deterministic for a seed: simulated-cluster time,
	// not wall time, so two sets of runs over the same seeds agree exactly.
	Virtual bool
	// span names the trace span whose mean duration a perLayer metric
	// reports; "" for metrics derived from counters. perNs converts
	// nanoseconds to the metric's unit.
	span  string
	perNs float64
}

const (
	us = 1e-3
	ms = 1e-6
)

var allWorkloads = []string{"serve-hot", "serve-churn", "search-cold", "campaign"}

// metrics is the benchmark's full metric table. The endToEnd and perLayer
// rows are mirrored in BENCHMARK.json (TestManifestMatchesTable keeps the two
// in step).
var metrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: endToEnd},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Kind: endToEnd},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: endToEnd},
	{Name: "mem_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, Kind: endToEnd},
	{Name: "plan_cost_ratio", Unit: "ratio", Better: "lower", Bound: 0.06, Kind: endToEnd, Virtual: true},

	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0, Kind: workloadOnly, Workloads: allWorkloads},
	{Name: "mem_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: allWorkloads},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: []string{"serve-hot", "serve-churn", "campaign"}},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: []string{"search-cold"}},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: []string{"serve-churn"}},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: []string{"serve-churn"}},
	{Name: "time_to_target_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: workloadOnly, Workloads: []string{"search-cold"}},
	{Name: "plan_cost_s", Unit: "s", Better: "lower", Bound: 0.01, Kind: workloadOnly, Workloads: []string{"search-cold"}, Virtual: true},
	{Name: "campaign_virtual_s", Unit: "s", Better: "lower", Bound: 0.01, Kind: workloadOnly, Workloads: []string{"campaign"}, Virtual: true},

	layer("serve.rtt_us", "us", "lower", "serve.rtt", us),
	layer("serve.handler_us", "us", "lower", "serve.handler", us),
	layer("serve.transport_us", "us", "lower", "", 0),
	layer("serve.fastpath_ratio", "ratio", "higher", "", 0),
	layer("serve.coalesced_per_solve", "ratio", "higher", "", 0),
	layer("serve.rejected", "count", "lower", "", 0),
	layer("serve.queue_high_water", "count", "lower", "", 0),
	layer("wire.request_encode_us", "us", "lower", "wire.request_encode", us),
	layer("wire.request_decode_us", "us", "lower", "wire.request_decode", us),
	layer("wire.plan_marshal_us", "us", "lower", "wire.plan_marshal", us),
	layer("wire.response_encode_us", "us", "lower", "wire.response_encode", us),
	layer("wire.response_bytes", "bytes", "lower", "", 0),
	layer("planner.canonicalize_us", "us", "lower", "planner.canonicalize", us),
	layer("planner.fingerprint_us", "us", "lower", "planner.fingerprint", us),
	layer("planner.plan_cached_us", "us", "lower", "planner.plan_cached", us),
	layer("planner.plan_cold_ms", "ms", "lower", "planner.plan_cold", ms),
	layer("planner.plan_warm_ms", "ms", "lower", "planner.plan_warm", ms),
	layer("planner.solve_overhead_ms", "ms", "lower", "", 0),
	layer("planner.plan_hit_ratio", "ratio", "higher", "", 0),
	layer("planner.cost_cache_hit_ratio", "ratio", "higher", "", 0),
	layer("core.plan_clone_us", "us", "lower", "core.plan_clone", us),
	layer("core.plan_fingerprint_us", "us", "lower", "core.plan_fingerprint", us),
	layer("core.plan_validate_us", "us", "lower", "core.plan_validate", us),
	layer("gpumodel.oracle_build_us", "us", "lower", "gpumodel.oracle_build", us),
	layer("gpumodel.assemble_call_us", "us", "lower", "gpumodel.assemble_call", us),
	layer("search.solve_ms", "ms", "lower", "search.solve", ms),
	layer("search.steps_per_s", "1/s", "higher", "", 0),
	layer("search.accept_ratio", "ratio", "higher", "", 0),
	layer("search.cache_hit_ratio", "ratio", "higher", "", 0),
	layer("search.target_miss_frac", "ratio", "lower", "", 0),
	layer("estimator.session_eval_us", "us", "lower", "estimator.session_eval", us),
	layer("estimator.recost_ratio", "ratio", "lower", "", 0),
	layer("estimator.evaluate_us", "us", "lower", "estimator.evaluate", us),
	layer("realloc.switch_cost_us", "us", "lower", "realloc.switch_cost", us),
	layer("runtime.reset_us", "us", "lower", "runtime.reset", us),
	layer("runtime.run_us", "us", "lower", "runtime.run", us),
	layer("runtime.sends_per_iter", "count", "lower", "", 0),
	layer("runtime.reply_wait_us", "us", "lower", "", 0),
	layer("trainer.step_steady_ms", "ms", "lower", "trainer.step_steady", ms),
	layer("trainer.step_replan_ms", "ms", "lower", "trainer.step_replan", ms),
	layer("trainer.replan_cached_ratio", "ratio", "higher", "", 0),
	layer("trainer.switches", "count", "lower", "", 0),
	layer("checkpoint.encode_us", "us", "lower", "checkpoint.encode", us),
	layer("checkpoint.bytes", "bytes", "lower", "", 0),
	layer("checkpoint.resume_ms", "ms", "lower", "checkpoint.resume", ms),
	layer("checkpoint.save_file_ms", "ms", "lower", "checkpoint.save_file", ms),
}

// layers are the span-name prefixes, one per program layer, plus "bench"
// for the benchmark's own time inside an operation. Each gets a
// <layer>.self_us metric: its mean self time per traced operation.
var layers = []string{"bench", "serve", "wire", "planner", "core", "gpumodel", "search",
	"estimator", "realloc", "runtime", "trainer", "checkpoint"}

func init() {
	for _, l := range layers {
		metrics = append(metrics, layer(l+".self_us", "us", "lower", "", 0))
	}
}

func layer(name, unit, better, span string, perNs float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Kind: perLayer, span: span, perNs: perNs}
}

// metricByName indexes the table.
func metricByName(name string) (metricDef, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// reports says whether a run of workload w reports metric m.
func (m metricDef) reports(w string, traced bool) bool {
	switch m.Kind {
	case endToEnd:
		return true
	case workloadOnly:
		return slices.Contains(m.Workloads, w)
	}
	return traced
}

// value is a metric reading. It marshals +Inf (a solve that never reached
// its target) as JSON null and reads null back as +Inf.
type value float64

func (v value) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

func (v *value) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = value(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = value(f)
	return nil
}

// runResult is one run of one workload: every metric it reports, by name.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Runs []runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func writeResultSet(path string, rs *resultSet) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- statistics ---

// percentile interpolates linearly between the closest ranks of sorted
// (0 <= p <= 1). It returns +Inf when the rank falls on an infinite sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) (the "exclusive" method) and
// statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 || math.IsInf(med, 0) {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// --- reporting ---

// printMetrics writes one aligned "name value unit" line per metric the run
// reports, in table order.
func printMetrics(w io.Writer, r *runResult, kinds ...int) {
	for _, m := range metrics {
		if !slices.Contains(kinds, m.Kind) {
			continue
		}
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14s %s\n", m.Name, formatValue(float64(v)), m.Unit)
	}
}

func formatValue(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.6g", f)
}

// summarize prints, per workload and metric, the median and quartiles over
// every run in the set.
func summarize(w io.Writer, rs *resultSet) {
	for _, wl := range workloadsIn(rs) {
		runs := runsOf(rs, wl)
		fmt.Fprintf(w, "%s (%d runs)\n", wl, len(runs))
		fmt.Fprintf(w, "  %-30s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "iqr%", "unit")
		for _, m := range metrics {
			vals := valuesOf(runs, m.Name)
			if len(vals) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			fmt.Fprintf(w, "  %-30s %14s %14s %14s %7.2f%%  %s\n", m.Name,
				formatValue(q1), formatValue(med), formatValue(q3), 100*spread(vals), m.Unit)
		}
	}
}

func workloadsIn(rs *resultSet) []string {
	var out []string
	for _, w := range allWorkloads {
		if len(runsOf(rs, w)) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// runsOf returns the untraced runs of one workload; traced runs carry
// tracing overhead and are never compared against untraced ones.
func runsOf(rs *resultSet, workload string) []runResult {
	var out []runResult
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, float64(v))
		}
	}
	return out
}

// compare checks set b against baseline set a with the table's bounds and
// prints one row per workload and end-to-end metric. A metric is
// "unresolved" when either side's run-to-run spread is wider than its bound,
// unless every run of b reads better than every run of a. It returns the
// number of regressions.
func compare(w io.Writer, a, b *resultSet) int {
	regressions := 0
	for _, wl := range workloadsIn(a) {
		ra, rb := runsOf(a, wl), runsOf(b, wl)
		if len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d vs %d runs)\n", wl, len(ra), len(rb))
		fmt.Fprintf(w, "  %-22s %14s %14s %9s %8s %8s %7s  %s\n", "metric", "base", "new", "change", "iqr-base", "iqr-new", "bound", "verdict")
		for _, m := range metrics {
			if m.Kind == perLayer {
				continue
			}
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change := judge(m, va, vb)
			if verdict == "REGRESSED" {
				regressions++
			}
			_, medA, _ := quartiles(va)
			_, medB, _ := quartiles(vb)
			fmt.Fprintf(w, "  %-22s %14s %14s %8.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n", m.Name,
				formatValue(medA), formatValue(medB), 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, verdict)
		}
	}
	return regressions
}

// judge classifies b against a for one metric and returns the worsening of
// b's median as a share of a's (negative when b is better).
func judge(m metricDef, a, b []float64) (string, float64) {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := medB - medA
	if m.Better == "higher" {
		worse = -worse
	}
	change := worse
	if medA != 0 && !math.IsInf(medA, 0) {
		change = worse / math.Abs(medA)
	}
	if m.Virtual && equalSets(a, b) {
		return "identical", 0
	}
	// A zero bound (fail_frac) is exact: any worsening is a regression.
	if m.Bound > 0 && (spread(a) > m.Bound || spread(b) > m.Bound) {
		if allBetter(m, a, b) {
			return "better", change
		}
		return "unresolved", change
	}
	if change > m.Bound {
		return "REGRESSED", change
	}
	return "ok", change
}

func equalSets(a, b []float64) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m metricDef, a, b []float64) bool {
	if m.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// resultLine is the last line of a single-workload run: the metrics
// BENCHMARK.json lists (end-to-end untraced, per-layer traced).
func resultLine(r *runResult) ([]byte, error) {
	type metric struct {
		Value value  `json:"value"`
		Unit  string `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	for _, m := range metrics {
		if m.Kind != want {
			continue
		}
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", r.Workload, m.Name)
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// checkReported returns the metrics a run should have reported but did not.
func checkReported(r *runResult) []string {
	var missing []string
	for _, m := range metrics {
		if _, ok := r.Metrics[m.Name]; !ok && m.reports(r.Workload, r.Traced) {
			missing = append(missing, m.Name)
		}
	}
	return missing
}
