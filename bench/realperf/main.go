// Command realperf is the repository's benchmark. It drives the planner,
// the plan service and the Trainer through their public APIs under four
// workloads, checks every output for correctness, and reports end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs).
//
//	realperf -workload serve-hot -seed 1 -seconds 15 -trace 0   # one run
//	realperf -seed 1                                            # all workloads
//	realperf -runs 5 -out base.json                             # medians, quartiles
//	realperf -compare base.json new.json                        # gate by bounds
//	realperf -workload all -trace 1 -trace-out trace.json       # per-layer split
//
// A single-workload run prints one "name value unit" line per metric and,
// as its last line, a JSON object with the correct flag, the attempted and
// failed operation counts, and the metrics BENCHMARK.json lists. With
// -workload all or -runs N, each run is a child process, so caches, heap and
// peak RSS never leak between workloads. See bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. Why each exists is in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	run  func(*runConfig) (*runResult, error)
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"serve-churn", runServeChurn},
	{"search-cold", runSearchCold},
	{"campaign", runCampaign},
}

// scratchRoot is where runs keep temporary files: inside the checkout, next
// to the build output.
const scratchRoot = ".bench_build"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("realperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "serve-hot, serve-churn, search-cold, campaign, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from; run i of -runs uses seed+i")
	seconds := fs.Float64("seconds", 15, "length of each run's timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run (per-layer metrics)")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this Chrome trace file")
	runs := fs.Int("runs", 1, "runs per workload, each in its own process")
	out := fs.String("out", "", "write every run's metrics to this JSON file (input to -compare)")
	result := fs.String("result", "", "write this run's metrics to this JSON file")
	cmp := fs.Bool("compare", false, "compare two -out files: -compare BASE NEW")
	targets := fs.Bool("targets", false, "recompute the search-cold targets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "realperf: -compare takes two result files")
			return 2
		}
		var regressions int
		if regressions, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressions > 0 {
			fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
			return 1
		}
	case *targets:
		err = printTargets(stdout)
	case *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1:
		err = errors.New("-seconds must be positive, -trace 0 or 1, -runs at least 1")
	case *name != "all" && *runs == 1:
		err = runOne(stdout, *name, *seed, *seconds, *trace == 1, *traceOut, *result)
	default:
		err = orchestrate(stdout, *name, *seed, *seconds, *trace == 1, *traceOut, *runs, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "realperf: %v\n", err)
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runOne runs one workload in this process and prints its metrics, the
// JSON result line last.
func runOne(stdout io.Writer, name string, seed int64, seconds float64, traced bool, traceOut, resultPath string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratchRoot, "realperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rc := &runConfig{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), scale: 1, tmpDir: tmp}
	if traced {
		rc.tr = newTracer(200)
	}
	res, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if missing := checkReported(res); len(missing) > 0 {
		return fmt.Errorf("%s did not report %s", name, strings.Join(missing, ", "))
	}
	if traced && traceOut != "" {
		if err := rc.tr.writeChrome(traceOut); err != nil {
			return err
		}
	}
	if resultPath != "" {
		if err := writeResultSet(resultPath, &resultSet{Runs: []runResult{*res}}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s seed=%d seconds=%g traced=%t attempted=%d failed=%d\n",
		name, seed, seconds, traced, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "  failure: %s\n", f)
	}
	printMetrics(stdout, res, endToEnd, workloadOnly)
	if traced {
		fmt.Fprintln(stdout, "  -- per layer (traced run; the end-to-end numbers above include tracing)")
		printMetrics(stdout, res, perLayer)
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// orchestrate runs each selected workload -runs times, each run in a child
// process, and summarizes. A traced orchestration runs every workload both
// untraced and traced and prints the tracing overhead.
func orchestrate(stdout io.Writer, name string, seed int64, seconds float64, traced bool, traceOut string, runs int, outPath string) error {
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratchRoot, "realperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	all := &resultSet{}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for r := 0; r < runs; r++ {
		for _, w := range selected {
			for _, tr := range modes {
				path := filepath.Join(tmp, "result.json")
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-result", path}
				if tr {
					args = append(args, "-trace", "1")
					if traceOut != "" {
						args = append(args, "-trace-out", perWorkloadPath(traceOut, w.name, len(selected) > 1))
					}
				}
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s run %d: %w", w.name, r, err)
				}
				rs, err := readResultSet(path)
				if err != nil {
					return err
				}
				all.Runs = append(all.Runs, rs.Runs...)
			}
		}
	}
	fmt.Fprintln(stdout)
	summarize(stdout, all)
	if traced {
		overhead(stdout, all)
	}
	if outPath != "" {
		return writeResultSet(outPath, all)
	}
	return nil
}

// perWorkloadPath gives each workload its own trace file when several run.
func perWorkloadPath(path, workload string, several bool) string {
	if !several {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + workload + ext
}

// overhead prints, per workload, each end-to-end metric of the traced runs
// against the untraced ones.
func overhead(w io.Writer, rs *resultSet) {
	fmt.Fprintln(w, "\ntracing overhead (traced median vs untraced median)")
	for _, wl := range workloadsIn(rs) {
		var traced []runResult
		for _, r := range rs.Runs {
			if r.Workload == wl && r.Traced {
				traced = append(traced, r)
			}
		}
		untraced := runsOf(rs, wl)
		fmt.Fprintf(w, "%s\n", wl)
		for _, m := range metrics {
			if m.Kind != endToEnd || m.Virtual {
				continue
			}
			_, a, _ := quartiles(valuesOf(untraced, m.Name))
			_, b, _ := quartiles(valuesOf(traced, m.Name))
			fmt.Fprintf(w, "  %-22s %14s %14s %+8.1f%%  %s\n", m.Name, formatValue(a), formatValue(b), 100*(b-a)/a, m.Unit)
		}
	}
}

func compareFiles(w io.Writer, basePath, newPath string) (int, error) {
	base, err := readResultSet(basePath)
	if err != nil {
		return 0, err
	}
	next, err := readResultSet(newPath)
	if err != nil {
		return 0, err
	}
	return compare(w, base, next), nil
}
