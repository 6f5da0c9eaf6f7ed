package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"realhf"
)

// BenchmarkServerCoalescedQPS measures one full service burst over the
// real HTTP stack: a cold solve fanned out to a fixed pool of coalesced
// waiters, followed by the same pool replayed against the plan cache.
// ns/op is the machine-dependent wall time of the burst (cold + coalesced
// + cached QPS folds out of it and the request counters); the custom
// metrics are exact counters — deterministic by construction, as the CI
// benchmark gate requires — proving the coalescing contract: every burst
// is 1 solve, waiters-1 coalesced fan-outs, and a 100% cached replay.
func BenchmarkServerCoalescedQPS(b *testing.B) {
	const waiters = 8
	ctx := context.Background()
	cfg := testConfig(3, 400)
	b.ReportAllocs()

	var solves, coalesced, cacheHits, requests int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		planner := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1})
		srv, err := New(Config{Planner: planner})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := NewClient(hs.URL)
		// The leader blocks at the solve hook until every other waiter has
		// deterministically joined its flight — no polling, no racy split
		// between coalesced joins and cache hits.
		release := make(chan struct{})
		allJoined := make(chan struct{})
		srv.hookBeforeSolve = func(string) { <-release }
		srv.hookWaiterJoined = func(joined int) {
			if joined == waiters-1 {
				close(allJoined)
			}
		}
		b.StartTimer()

		var wg sync.WaitGroup
		for k := 0; k < waiters; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Plan(ctx, cfg, nil); err != nil {
					b.Error(err)
				}
			}()
		}
		<-allJoined
		close(release)
		wg.Wait()

		for k := 0; k < waiters; k++ {
			resp, err := client.Plan(ctx, cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("replay missed the plan cache")
			}
		}

		b.StopTimer()
		st := srv.Stats()
		solves += st.Solves
		coalesced += st.Coalesced
		cacheHits += st.CacheHits
		requests += st.Requests
		hs.Close()
	}

	n := float64(b.N)
	b.ReportMetric(float64(solves)/n, "solves-per-burst")
	b.ReportMetric(float64(coalesced)/n, "coalesced-per-solve")
	b.ReportMetric(float64(cacheHits)/n, "cached-hits-per-burst")
	b.ReportMetric(float64(requests)/n, "requests-per-burst")
}

// BenchmarkServerCachedHit measures the served plan-cache hit in the
// handler alone: one POST /v1/plan for a solved config whose entry already
// stores its body, through Handler().ServeHTTP with a response recorder (no
// network). allocs/op and B/op gate the hit path's allocations; the custom
// metrics are exact: each op is one cache hit, no solve, and the same
// response size.
func BenchmarkServerCachedHit(b *testing.B) {
	srv, err := New(Config{Planner: realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1})})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body, err := json.Marshal(&PlanRequest{Config: testConfig(3, 400)})
	if err != nil {
		b.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathPlan, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	post() // the solve
	post() // the first hit, which stores the body
	before := srv.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	var respBytes int
	for i := 0; i < b.N; i++ {
		respBytes = post().Body.Len()
	}
	b.StopTimer()
	st := srv.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(st.CacheHits-before.CacheHits)/n, "cache-hits-per-op")
	b.ReportMetric(float64(st.Solves-before.Solves)/n, "solves-per-op")
	b.ReportMetric(float64(respBytes), "response-bytes")
}

// BenchmarkPlanResponseDecode measures the client's end of a served hit:
// per op, decodePlanResponse decodes one stored hit body (the config in the
// response decoder's own strict pass, then the plan re-indented to its
// SavePlan bytes). allocs/op and B/op gate the decode's allocations;
// response-bytes is the decoded body's exact size.
func BenchmarkPlanResponseDecode(b *testing.B) {
	srv, err := New(Config{Planner: realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1})})
	if err != nil {
		b.Fatal(err)
	}
	req, err := json.Marshal(&PlanRequest{Config: testConfig(3, 400)})
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	for i := 0; i < 2; i++ { // the solve, then the hit whose body is stored
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathPlan, bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		body = rec.Body.Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := decodePlanResponse(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("decoded a response that is not a cache hit")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(body)), "response-bytes")
}
