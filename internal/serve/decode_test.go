package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"realhf"
)

// decodePlanRequestTwoPass is the handler's request decode from before
// configs were decoded in one pass: a strict decoder straight into
// PlanRequest, whose config ExperimentConfig.UnmarshalJSON decodes a second
// time, and the same trailing-data check. FuzzPlanRequestDecode holds
// decodePlanRequest to it.
func decodePlanRequestTwoPass(body io.Reader) (*PlanRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, tail := dec.Token(); tail != io.EOF {
		return nil, errors.New("trailing data after the request")
	}
	return &req, nil
}

// configKeys counts the top-level keys of a JSON object that
// encoding/json matches to the config field (case-insensitively); a value
// that is not an object names none.
func configKeys(data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, ok := tok.(string); ok && strings.EqualFold(key, "config") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return n
		}
	}
	return n
}

// FuzzPlanRequestDecode: the handler's one-pass decode accepts exactly the
// requests the two-pass decode accepts, decodes them to the same request
// (unless the config key repeats, where one pass merges the objects and
// two passes kept the last), and an accepted request re-marshals to bytes
// that decode to the same canonical fingerprint. Neither decode panics.
func FuzzPlanRequestDecode(f *testing.F) {
	p := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodePlanRequest(bytes.NewReader(data))
		want, refErr := decodePlanRequestTwoPass(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("one-pass decode err = %v, two-pass err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if configKeys(data) <= 1 && !reflect.DeepEqual(got, want) {
			t.Fatalf("one-pass decode\n%+v\ntwo-pass decode\n%+v", got, want)
		}
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal an accepted request: %v", err)
		}
		back, err := decodePlanRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshaled request does not decode: %v\n%s", err, again)
		}
		if a, b := p.Canonicalize(back.Config).Fingerprint(), p.Canonicalize(got.Config).Fingerprint(); a != b {
			t.Fatalf("fingerprint moved across a re-marshal:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestDuplicateConfigKeysMerge pins the one-pass rule for a repeated
// config key: like any repeated key, the objects merge field by field
// (matched case-insensitively), and a null leaves the config as it is.
func TestDuplicateConfigKeysMerge(t *testing.T) {
	req, err := decodePlanRequest(strings.NewReader(
		`{"config":{"batch_size":64,"seed":1},"Config":{"seed":2},"config":null}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Config.BatchSize != 64 || req.Config.Seed != 2 {
		t.Errorf("merged config = %+v, want batch_size 64 from the first object and seed 2 from the second", req.Config)
	}
}

// TestNonStringInterfaceTypeIs400: an interface type that is not a string
// is an invalid config at the handler, as before the one-pass decode, and
// the two-pass route still wraps ErrInvalidConfig.
func TestNonStringInterfaceTypeIs400(t *testing.T) {
	const body = `{"config":{"rpcs":[{"interface_type":3}]}}`
	if _, err := decodePlanRequestTwoPass(strings.NewReader(body)); !errors.Is(err, realhf.ErrInvalidConfig) {
		t.Errorf("two-pass decode: %v, want wrapped ErrInvalidConfig", err)
	}
	srv, hs, _ := newTestServer(t, Config{})
	resp, err := http.Post(hs.URL+PathPlan, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wire ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&wire)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || wire.Code != CodeInvalidConfig {
		t.Errorf("HTTP %d code %q (decode err %v), want 400 %s", resp.StatusCode, wire.Code, err, CodeInvalidConfig)
	}
	if st := srv.Stats(); st.Invalid != 1 || st.Requests != 0 {
		t.Errorf("stats = %+v, want one invalid decode and no request", st)
	}
}

// TestClientResponseDecodeIsStrict: Client.Plan decodes a 200 answer
// strictly. A canned copy of a real hit body decodes to what the real
// server's answer decodes to; an unknown config field fails, as it always
// did, and so does an unknown top-level field.
func TestClientResponseDecodeIsStrict(t *testing.T) {
	_, hs, client := newTestServer(t, Config{})
	ctx := context.Background()
	cfg := testConfig(9, 200)
	if _, err := client.Plan(ctx, cfg, nil); err != nil {
		t.Fatal(err)
	}
	status, body, err := postPlan(hs.URL, &PlanRequest{Config: cfg})
	if err != nil || status != http.StatusOK {
		t.Fatalf("hit: HTTP %d, %v", status, err)
	}
	want, err := client.Plan(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	canned := func(body []byte) (*PlanResponse, error) {
		cs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeBody(w, http.StatusOK, body)
		}))
		defer cs.Close()
		return NewClient(cs.URL).Plan(ctx, cfg, nil)
	}
	if got, err := canned(body); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("canned hit body: %v (equal to the live answer: %v)", err, reflect.DeepEqual(got, want))
	}
	for name, edit := range map[string][2]string{
		"unknown config field":    {`"config":{`, `"config":{"bogus_knob":1,`},
		"unknown top-level field": {`{"config":`, `{"bogus":1,"config":`},
	} {
		bad := bytes.Replace(body, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(bad, body) {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := canned(bad); err == nil || !strings.Contains(err.Error(), "decode plan response") {
			t.Errorf("%s: Client.Plan = %v, want a decode error", name, err)
		}
	}
}

// TestNegativeFieldsAre400 pins the bugfix through the server: a negative
// gpus_per_node used to panic the flight goroutine (killing the process), a
// negative search_steps held a solve slot until the deadline, a negative
// iterations answered 500 and a negative batch_size planned. Each is now a
// 400 invalid_config, and the server keeps answering. The request deadline
// bounds the test should a solve run forever.
func TestNegativeFieldsAre400(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	for _, tc := range []struct {
		field string
		set   func(*realhf.ExperimentConfig)
	}{
		{"GPUsPerNode", func(c *realhf.ExperimentConfig) { c.GPUsPerNode = -8 }},
		{"BatchSize", func(c *realhf.ExperimentConfig) { c.BatchSize = -64 }},
		{"PromptLen", func(c *realhf.ExperimentConfig) { c.PromptLen = -1 }},
		{"GenLen", func(c *realhf.ExperimentConfig) { c.GenLen = -1 }},
		{"MiniBatches", func(c *realhf.ExperimentConfig) { c.MiniBatches = -1 }},
		{"Iterations", func(c *realhf.ExperimentConfig) { c.Iterations = -1 }},
		{"SearchSteps", func(c *realhf.ExperimentConfig) { c.SearchSteps = -5 }},
		{"SearchTime", func(c *realhf.ExperimentConfig) { c.SearchTime = -time.Second }},
		{"SearchParallelism", func(c *realhf.ExperimentConfig) { c.SearchParallelism = -2 }},
	} {
		cfg := testConfig(12, 200)
		tc.set(&cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := client.Plan(ctx, cfg, nil)
		cancel()
		var se *ServerError
		if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest || se.Code != CodeInvalidConfig ||
			!strings.Contains(se.Message, tc.field) {
			t.Errorf("negative %s: %v, want 400 %s naming the field", tc.field, err, CodeInvalidConfig)
		}
	}
	if _, err := client.Plan(context.Background(), testConfig(12, 200), nil); err != nil {
		t.Fatalf("the server stopped answering: %v", err)
	}
	if st := srv.Stats(); st.Solves != 1 || st.Invalid != 9 || st.SolveErrors != 0 {
		t.Errorf("stats = %+v, want 1 solve, 9 invalid and no solve errors", st)
	}
}

// TestClusterCapIs400 pins the bugfix through the server: a request for
// 1<<40 nodes, or 1<<40 GPUs per node, made the planner allocate terabytes
// and die with a fatal out of memory, killing the process. Each is now a
// 400 invalid_config, and the server keeps answering.
func TestClusterCapIs400(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	for _, tc := range []struct {
		field string
		set   func(*realhf.ExperimentConfig)
	}{
		{"Nodes", func(c *realhf.ExperimentConfig) { c.Nodes = 1 << 40 }},
		{"GPUsPerNode", func(c *realhf.ExperimentConfig) { c.GPUsPerNode = 1 << 40 }},
	} {
		cfg := testConfig(12, 200)
		tc.set(&cfg)
		_, err := client.Plan(context.Background(), cfg, nil)
		var se *ServerError
		if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest || se.Code != CodeInvalidConfig ||
			!strings.Contains(se.Message, tc.field) {
			t.Errorf("%s = 1<<40: %v, want 400 %s naming the field", tc.field, err, CodeInvalidConfig)
		}
	}
	if _, err := client.Plan(context.Background(), testConfig(12, 200), nil); err != nil {
		t.Fatalf("the server stopped answering: %v", err)
	}
	if st := srv.Stats(); st.Solves != 1 || st.Invalid != 2 || st.SolveErrors != 0 {
		t.Errorf("stats = %+v, want 1 solve, 2 invalid and no solve errors", st)
	}
}

// TestInvalidConfigAnsweredBeforeAdmission pins the bugfix: a config that
// fails validation was admitted like any miss. With the admission queue
// full it got 429 and a Retry-After, so a client would retry a request
// that can never succeed; otherwise it opened a flight and counted under
// Solves, SolveErrors and Invalid at once. Now the fast path answers it 400
// before admission, counted under Requests and Invalid only.
func TestInvalidConfigAnsweredBeforeAdmission(t *testing.T) {
	srv, _, client := newTestServer(t, Config{MaxConcurrentSolves: 1, QueueDepth: 1})
	release := make(chan struct{})
	srv.hookBeforeSolve = func(string) { <-release }
	ctx := context.Background()
	bad := testConfig(4, 300)
	bad.Nodes = -1
	wantInvalid := func(when string) {
		t.Helper()
		_, err := client.Plan(ctx, bad, nil)
		var se *ServerError
		if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest || se.Code != CodeInvalidConfig || se.RetryAfter != 0 {
			t.Errorf("%s: nodes -1 answered %v, want 400 %s with no Retry-After", when, err, CodeInvalidConfig)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = client.Plan(ctx, testConfig(1, 300), nil) }()
	waitFor(t, "the first solve to occupy the slot", func() bool {
		st := srv.Stats()
		return st.Solves == 1 && st.Queued == 0
	})
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = client.Plan(ctx, testConfig(2, 300), nil) }()
	waitFor(t, "the second request to queue", func() bool { return srv.Stats().Queued == 1 })
	wantInvalid("queue full")
	close(release)
	wg.Wait()

	before := srv.Stats()
	wantInvalid("idle")
	st := srv.Stats()
	if st.Requests != before.Requests+1 || st.Invalid != before.Invalid+1 || st.Solves != before.Solves {
		t.Errorf("idle: stats %+v -> %+v, want one more request and invalid and no solve", before, st)
	}
	if st.Requests != 4 || st.Invalid != 2 || st.Solves != 2 || st.SolveErrors != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want 4 requests, 2 invalid, 2 solves, no solve errors or rejections", st)
	}
}
