package checkpoint

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleState() *State {
	return &State{
		Iteration:          7,
		Replans:            3,
		Switches:           2,
		WorkerFailures:     1,
		SwitchCostV:        12.25,
		TotalMakespanV:     480.5,
		PendingSwitchCostV: 1.5,
		Drifted:            true,
		Nodes:              2,
		PlannedGenLen:      768,
		Plan:               json.RawMessage(`{"version":1,"nodes":2}`),
		PlanFingerprint:    "deadbeefcafe",
		Calibration:        map[string]float64{"ActorGen": 1.25, "RewInf": 0.9},
	}
}

// TestRoundTripBitStable: encode → decode → encode reproduces the exact
// bytes, and the decoded state equals the original — the same contract
// wire.go proves for plan requests.
func TestRoundTripBitStable(t *testing.T) {
	s := sampleState()
	var first bytes.Buffer
	if err := Write(&first, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState()
	want.Version = Version
	// The encoder re-indents the embedded plan document; its JSON value —
	// not its whitespace — is the round-trip contract.
	var gotPlan, wantPlan bytes.Buffer
	if err := json.Compact(&gotPlan, got.Plan); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantPlan, want.Plan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPlan.Bytes(), wantPlan.Bytes()) {
		t.Fatalf("round trip changed the plan payload: %s vs %s", &gotPlan, &wantPlan)
	}
	var second bytes.Buffer
	if err := Write(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding is not bit-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	got.Plan, want.Plan = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed state:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteIsDeterministic: two writes of equal state are byte-identical
// (the calibration map must not leak Go's randomized iteration order).
func TestWriteIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, sampleState()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, sampleState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of equal state differ")
	}
}

// TestReadRejectsUnknownFields: strict decode — campaign state written by
// a future build must fail loudly, not lose fields silently.
func TestReadRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(buf.String(), `"iteration"`, `"iteration_count"`, 1)
	if _, err := Read(strings.NewReader(mutated)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}

// TestReadRejectsTrailingBytes: a checkpoint is exactly one document. Only
// whitespace may follow it (Write ends it with a newline); anything else is
// a decode error, including a stray ']' that Decoder.More would take for the
// end of the input.
func TestReadRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, c := range []struct {
		tail string
		ok   bool
	}{
		{"", true},
		{" \t\r\n\n", true},
		{"garbage", false},
		{"]", false},
		{"}", false},
		{"0", false},
		{"{}", false},
		{doc, false},
	} {
		_, err := Read(strings.NewReader(doc + c.tail))
		if (err == nil) != c.ok {
			t.Errorf("checkpoint followed by %q: err = %v, want accepted = %v", c.tail, err, c.ok)
		}
	}
}

// TestVersionSkewRejected on both sides: Read refuses other versions, and
// Write refuses to emit a version this build does not produce.
func TestVersionSkewRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := Read(strings.NewReader(mutated)); err == nil {
		t.Fatal("version skew must be rejected")
	}
	bad := sampleState()
	bad.Version = 2
	if err := Write(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("writing a foreign version must be rejected")
	}
}

// TestSaveAtomicReplace: Save lands the full new state (via rename), keeps
// no temp litter, and Load round-trips it.
func TestSaveAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	old := sampleState()
	if err := Save(path, old); err != nil {
		t.Fatal(err)
	}
	next := sampleState()
	next.Iteration = 8
	next.Drifted = false
	if err := Save(path, next); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 8 || got.Drifted {
		t.Fatalf("Load returned stale state: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("Save left temp litter: %v", entries)
	}
}

// indentReference is the encoding MarshalJSON must reproduce byte for byte:
// json.MarshalIndent of the whole wire document, plan included.
func indentReference(s *State) ([]byte, error) {
	return json.MarshalIndent(stateJSON{
		Version:            s.Version,
		Iteration:          s.Iteration,
		Replans:            s.Replans,
		Switches:           s.Switches,
		WorkerFailures:     s.WorkerFailures,
		SwitchCostV:        s.SwitchCostV,
		TotalMakespanV:     s.TotalMakespanV,
		PendingSwitchCostV: s.PendingSwitchCostV,
		Drifted:            s.Drifted,
		Nodes:              s.Nodes,
		PlannedGenLen:      s.PlannedGenLen,
		Plan:               s.Plan,
		PlanFingerprint:    s.PlanFingerprint,
		Calibration:        s.Calibration,
	}, "", "  ")
}

// TestMarshalMatchesIndentReference: over randomized states — compact,
// indented and whitespace-padded plans, plans whose strings hold <, >, &
// and U+2028, nil and non-empty calibration, Drifted both ways — MarshalJSON
// returns exactly the reference bytes, and fails exactly when it does.
func TestMarshalMatchesIndentReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const alphabet = "abcXYZ09 _-<>&\"\\/é\u2028\u2029\t"
	word := func() string {
		r := []rune(alphabet)
		out := make([]rune, rng.Intn(8))
		for i := range out {
			out[i] = r[rng.Intn(len(r))]
		}
		return string(out)
	}
	var value func(depth int) any
	value = func(depth int) any {
		switch k := rng.Intn(7); {
		case depth > 3 || k == 0:
			return []any{rng.Intn(2000) - 1000, rng.Float64() * 1e6, 1e-9, 1e21, true, false, nil, word()}[rng.Intn(8)]
		case k < 4:
			m := map[string]any{}
			for i := rng.Intn(4); i > 0; i-- {
				m[word()] = value(depth + 1)
			}
			return m
		default:
			a := make([]any, rng.Intn(4))
			for i := range a {
				a[i] = value(depth + 1)
			}
			return a
		}
	}
	plan := func() json.RawMessage {
		if rng.Intn(10) == 0 {
			return nil
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(rng.Intn(2) == 0) // raw <, > and & half the time
		switch rng.Intn(3) {
		case 1:
			enc.SetIndent("", "  ")
		case 2:
			enc.SetIndent("\t", " ")
		}
		if err := enc.Encode(map[string]any{"version": 1, "assignments": value(0)}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes() // Encode ends the document with a newline
		if rng.Intn(2) == 0 {
			b = bytes.TrimRight(b, "\n")
		}
		if rng.Intn(3) == 0 {
			b = append([]byte(" \n\t"), b...)
		}
		return b
	}
	for i := 0; i < 500; i++ {
		s := &State{
			Version:            Version,
			Iteration:          rng.Intn(1 << 20),
			Replans:            rng.Intn(100),
			Switches:           rng.Intn(100),
			WorkerFailures:     rng.Intn(4),
			SwitchCostV:        rng.Float64() * 100,
			TotalMakespanV:     rng.ExpFloat64() * 1e5,
			PendingSwitchCostV: []float64{0, rng.Float64(), 1e-7}[rng.Intn(3)],
			Drifted:            rng.Intn(2) == 0,
			Nodes:              1 + rng.Intn(16),
			PlannedGenLen:      rng.Intn(4096),
			Plan:               plan(),
			PlanFingerprint:    word(),
		}
		switch rng.Intn(3) {
		case 1:
			s.Calibration = map[string]float64{}
		case 2:
			s.Calibration = map[string]float64{word(): rng.Float64() * 2, "ActorGen": 1.25}
		}
		checkMarshalMatches(t, s)
	}
}

// TestMarshalRejectsMalformedPlans: plan bytes the reference encoder
// rejects are rejected too, including an invalid escape that HTML escaping
// would turn into a valid one.
func TestMarshalRejectsMalformedPlans(t *testing.T) {
	for _, p := range []string{"", "  ", "{", `{"a":1}}`, `{"a":1} {}`, `"\<"`, "<", " ", `{"a":01}`} {
		s := sampleState()
		s.Plan = json.RawMessage(p)
		checkMarshalMatches(t, s)
	}
}

// checkMarshalMatches fails unless MarshalJSON agrees with indentReference
// on s: the same bytes, or an error from both.
func checkMarshalMatches(t *testing.T, s *State) {
	t.Helper()
	want, wantErr := indentReference(s)
	got, err := s.MarshalJSON()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("plan %q: MarshalJSON err = %v, reference err = %v", s.Plan, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("plan %q: MarshalJSON differs from the MarshalIndent reference:\n%s\nvs\n%s", s.Plan, got, want)
	}
}
