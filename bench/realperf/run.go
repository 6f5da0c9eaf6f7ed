package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds time.Duration // length of the timed phase
	tr      *tracer       // nil for an untraced run
	// scale shrinks the fixed operation counts (quality prefixes, seeds per
	// problem, set-up repetitions); 1 for the benchmark, ~0.01 in the smoke
	// test.
	scale float64
	// tmpDir is a scratch directory inside the checkout (checkpoint files).
	tmpDir string
}

// scaled returns n at the run's scale, at least 1.
func (rc *runConfig) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*rc.scale)))
}

// setups is how many times a run repeats its set-up; setup_s is their
// median, so one slow repetition cannot move it.
func (rc *runConfig) setups() int { return rc.scaled(5) }

// repeatSetup runs fn n times (last is true on the final call, whose state
// the timed phase uses) and returns each call's wall time.
func repeatSetup(n int, fn func(last bool) error) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		// Each repetition, and the timed phase after the last, starts from a
		// collected heap, so no repetition pays for its predecessor's garbage.
		runtime.GC()
		start := time.Now()
		if err := fn(i == n-1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start))
	}
	runtime.GC()
	return out, nil
}

// closedLoop runs do from `clients` goroutines, each starting its next
// operation when the previous one returns, until the run's seconds have
// passed and every operation index below minOps has run. Operation indices
// are handed out in order, so a seed-derived input stream indexed by them
// is the same whatever the timing. It returns the timed phase's length.
func closedLoop(rc *runConfig, clients, minOps int, rec *recorder, do func(client, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	rss := make(chan []float64, 1)
	go func() { rss <- sampleRSS(stop) }()
	start := time.Now()
	deadline := start.Add(rc.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	rec.rss = <-rss
	rec.memPeak = vmHWM()
	return elapsed
}

// rssEvery is the resident-set sampling period of the timed phase.
const rssEvery = 20 * time.Millisecond

// sampleRSS samples the process's resident set size (MiB) until stop closes.
// The median of the samples is a steady-state footprint; the peak (VmHWM)
// depends on where garbage collections happen to fall and varies far more
// between runs.
func sampleRSS(stop <-chan struct{}) []float64 {
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	var out []float64
	for {
		if data, err := os.ReadFile("/proc/self/statm"); err == nil {
			if f := strings.Fields(string(data)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					out = append(out, pages*float64(os.Getpagesize())/(1<<20))
				}
			}
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

// recorder collects one run's latencies and failures.
type recorder struct {
	mu        sync.Mutex
	lat       *reservoir // ms, every successful operation
	hits      *reservoir // ms, answered from the plan cache
	misses    *reservoir // ms, solved for this request alone
	attempted int
	failed    int
	failures  []string
	memPeak   float64   // MiB, peak resident set size at the end of the timed phase
	rss       []float64 // MiB, resident set size samples over the timed phase
}

func newRecorder() *recorder {
	return &recorder{lat: newReservoir(), hits: newReservoir(), misses: newReservoir()}
}

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) observe(lat time.Duration, hit, miss bool) {
	ms := float64(lat) / 1e6
	r.mu.Lock()
	r.lat.add(ms)
	if hit {
		r.hits.add(ms)
	}
	if miss {
		r.misses.add(ms)
	}
	r.mu.Unlock()
}

// ops is the number of operations that succeeded.
func (r *recorder) ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat.n
}

// reservoirSize bounds the latency samples a run keeps.
const reservoirSize = 1 << 16

// reservoir keeps a uniform sample of at most reservoirSize values
// (Vitter's algorithm R). Its memory is allocated once, so the benchmark's
// resident set does not grow with the operation count: a faster program
// completes more operations, and that must not read as more memory.
type reservoir struct {
	n    int
	vals []float64
	rng  *rand.Rand
}

func newReservoir() *reservoir {
	return &reservoir{vals: make([]float64, 0, reservoirSize), rng: rand.New(rand.NewSource(1))}
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, v)
	} else if j := r.rng.Intn(r.n); j < reservoirSize {
		r.vals[j] = v
	}
}

// percentile returns the p-th percentile (0..1) of the sample.
func (r *reservoir) percentile(p float64) float64 {
	s := append([]float64(nil), r.vals...)
	sort.Float64s(s)
	return percentile(s, p)
}

// maxFailures bounds the failure messages a run keeps.
const maxFailures = 10

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func p50(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// result builds the run's end-to-end timing metrics.
func (r *recorder) result(rc *runConfig, workload string, setup []time.Duration, elapsed time.Duration) *runResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	secs := make([]float64, len(setup))
	for i, d := range setup {
		secs[i] = d.Seconds()
	}
	m := map[string]value{
		"setup_s":          value(p50(secs)),
		"throughput_ops_s": value(float64(r.lat.n) / elapsed.Seconds()),
		"latency_p50_ms":   value(r.lat.percentile(0.50)),
		"latency_p90_ms":   value(r.lat.percentile(0.90)),
		"latency_p99_ms":   value(r.lat.percentile(0.99)),
		"mem_peak_mb":      value(r.memPeak),
		"mem_rss_mb":       value(p50(r.rss)),
	}
	// Each workload reports the tail percentile its sample supports (see
	// the metric table).
	for name := range m {
		if d, _ := metricByName(name); !d.reports(workload, false) {
			delete(m, name)
		}
	}
	return &runResult{Workload: workload, Seed: rc.seed, Seconds: rc.seconds.Seconds(), Traced: rc.tr != nil, Metrics: m}
}

// finish stamps the attempt and failure counts once every check has run. A
// traced run reports 0 for every layer the workload never reached.
func (r *recorder) finish(res *runResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Metrics["fail_frac"] = value(ratio(float64(r.failed), float64(r.attempted)))
	if !res.Traced {
		return
	}
	for _, m := range metrics {
		if _, ok := res.Metrics[m.Name]; !ok && m.Kind == perLayer {
			res.Metrics[m.Name] = 0
		}
	}
}

// vmHWM is the process's peak resident set size in MiB (Linux VmHWM); where
// /proc is unavailable it falls back to the memory the Go runtime obtained
// from the OS.
func vmHWM() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
