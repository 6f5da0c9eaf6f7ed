package realhf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// refAppendToken, refProblemKey and refFingerprint are the fmt-built
// problem key and fingerprint the append-built encoders replaced. They
// define the key bytes: the plan cache, the problem pool and the serve
// coalescing key all depend on them staying byte-identical.
func refAppendToken(b *strings.Builder, s string) {
	fmt.Fprintf(b, "%d:%s,", len(s), s)
}

func refProblemKey(c ExperimentConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster=%d.%d;work=%d.%d.%d.%d.%d;overlap=%t;offload=%t;rpcs=",
		c.Nodes, c.GPUsPerNode, c.BatchSize, c.PromptLen, c.GenLen, c.MiniBatches, c.Iterations, c.PlanForOverlap, c.OffloadSearch)
	for _, r := range c.RPCs {
		scale := r.BatchScale
		if scale < 1 {
			scale = 1
		}
		mini := 0
		if r.InterfaceType == TrainStep {
			mini = c.MiniBatches
			if r.MiniBatches > 0 {
				mini = r.MiniBatches
			}
		}
		fmt.Fprintf(&b, "[%d.%d.%d;", int(r.InterfaceType), scale, mini)
		refAppendToken(&b, r.Name)
		refAppendToken(&b, r.ModelName)
		refAppendToken(&b, r.ModelType)
		b.WriteString("in;")
		for _, s := range r.InputData {
			refAppendToken(&b, s)
		}
		b.WriteString("out;")
		for _, s := range r.OutputData {
			refAppendToken(&b, s)
		}
		b.WriteString("]")
	}
	return b.String()
}

func refFingerprint(c ExperimentConfig) string {
	return refProblemKey(c) + fmt.Sprintf(";solver=%s;steps=%d;time=%d;seed=%d;chains=%d",
		c.Solver, c.SearchSteps, int64(c.SearchTime), c.Seed, c.SearchParallelism)
}

// keyFuzzer draws the configs TestRequestKeyMatchesReference compares:
// names with the key's own separators and multibyte (and invalid UTF-8)
// runes, nil and empty lists, negative and extreme ints, in-range and
// out-of-range interface types.
type keyFuzzer struct{ rng *rand.Rand }

func (f keyFuzzer) int() int {
	switch f.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -1 - f.rng.Intn(100)
	case 2:
		return math.MaxInt
	case 3:
		return math.MinInt
	case 4:
		return int(f.rng.Uint64())
	}
	return f.rng.Intn(5000)
}

func (f keyFuzzer) int64() int64 {
	switch f.rng.Intn(4) {
	case 0:
		return math.MaxInt64
	case 1:
		return math.MinInt64
	}
	return int64(f.int())
}

var keyFuzzPieces = []string{
	"", "actor", "critic/TRAIN_STEP", "llama7b-critic", ":", ",", "3:abc,", "a:b,c",
	"]", "[", ";", "日本語", "é", "\xff\xfe", "\x00", "🙂,:", " ",
}

func (f keyFuzzer) name() string {
	var b strings.Builder
	for n := f.rng.Intn(4); n > 0; n-- {
		b.WriteString(keyFuzzPieces[f.rng.Intn(len(keyFuzzPieces))])
	}
	return b.String()
}

func (f keyFuzzer) names() []string {
	switch f.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+f.rng.Intn(4))
	for i := range out {
		out[i] = f.name()
	}
	return out
}

func (f keyFuzzer) interfaceType() InterfaceType {
	types := []InterfaceType{Generate, Inference, TrainStep, InterfaceType(7), InterfaceType(-2)}
	return types[f.rng.Intn(len(types))]
}

func (f keyFuzzer) config() ExperimentConfig {
	c := ExperimentConfig{
		Nodes: f.int(), GPUsPerNode: f.int(), BatchSize: f.int(), PromptLen: f.int(), GenLen: f.int(),
		MiniBatches: f.int(), Iterations: f.int(),
		SearchSteps: f.int(), SearchTime: time.Duration(f.int64()), Seed: f.int64(),
		Solver: f.name(), SearchParallelism: f.int(),
		PlanForOverlap: f.rng.Intn(2) == 0, OffloadSearch: f.rng.Intn(2) == 0,
	}
	switch f.rng.Intn(5) {
	case 0:
		return c // nil RPCs
	case 1:
		c.RPCs = []ModelFunctionCallDef{}
		return c
	}
	c.RPCs = make([]ModelFunctionCallDef, 1+f.rng.Intn(6))
	for i := range c.RPCs {
		c.RPCs[i] = ModelFunctionCallDef{
			Name: f.name(), ModelName: f.name(), ModelType: f.name(),
			InterfaceType: f.interfaceType(),
			InputData:     f.names(), OutputData: f.names(),
			BatchScale: f.int(), MiniBatches: f.int(),
		}
	}
	return c
}

// TestRequestKeyMatchesReference: the append-built problemKey,
// fingerprint and request key are byte-identical to the fmt-built
// reference on random configs, raw and defaults-applied, with and without
// calibration and warm-start tokens.
func TestRequestKeyMatchesReference(t *testing.T) {
	f := keyFuzzer{rand.New(rand.NewSource(1))}
	calib := estimator.NewCalibration(map[string]float64{"actor/GENERATE": 1.25})
	checks := map[string]int{}
	for i := 0; i < 20_000; i++ {
		c := f.config()
		if i%2 == 1 {
			c = c.withDefaults()
		}
		if got, want := c.problemKey(), refProblemKey(c); got != want {
			t.Fatalf("config %d: problemKey\n%q\nwant\n%q", i, got, want)
		}
		if got, want := c.fingerprint(), refFingerprint(c); got != want {
			t.Fatalf("config %d: fingerprint\n%q\nwant\n%q", i, got, want)
		}
		o := &autoOptions{}
		if i%3 == 0 {
			o.calib = calib
		}
		if i%5 == 0 {
			o.warmStarts = []*core.Plan{nil}
		}
		if got, want := o.requestKey(c), refFingerprint(c)+calibToken(o.calib)+warmStartKey(o.warmStarts); got != want {
			t.Fatalf("config %d: requestKey\n%q\nwant\n%q", i, got, want)
		}
		for _, r := range c.RPCs {
			checks[r.InterfaceType.String()]++
		}
		checks[fmt.Sprintf("overlap=%t", c.PlanForOverlap)]++
		checks[fmt.Sprintf("offload=%t", c.OffloadSearch)]++
	}
	// Every interface type (two out of range among them) and both values
	// of each bool reached the comparison.
	if len(checks) != 9 {
		t.Errorf("coverage %v, want 5 interface types and both values of 2 bools", checks)
	}
}
