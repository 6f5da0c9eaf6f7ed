// Package serve is the plan service: a multi-tenant HTTP/JSON frontend over
// a shared realhf.Planner. Identical in-flight requests are coalesced via
// singleflight on the canonical config fingerprint (one solve fans out to
// every waiter), cross-tenant plan and cost caches are shared while
// per-tenant calibration stays isolated under its calibration key, and a
// bounded admission queue applies backpressure (429 + Retry-After) so the
// server never queues unboundedly. Server is the embeddable core behind
// cmd/realserve; Client is the typed counterpart that maps HTTP statuses
// back onto the realhf error taxonomy.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"

	"realhf"
)

// Wire paths of the HTTP API.
const (
	// PathPlan accepts POST PlanRequest and answers PlanResponse.
	PathPlan = "/v1/plan"
	// PathStats answers GET with StatsResponse.
	PathStats = "/v1/stats"
	// PathHealth answers GET with 200 while serving and 503 while draining.
	PathHealth = "/v1/healthz"
)

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	// Config is the experiment to plan, in the canonical realhf wire codec.
	// Zero Nodes/GPUsPerNode inherit the server session's cluster defaults.
	Config realhf.ExperimentConfig `json:"config"`

	// Algo optionally replaces an empty Config.RPCs with a workflow preset
	// ("ppo", "dpo", "grpo", "remax") over ActorType/CriticType — the curl
	// shorthand for the realhf.AlgoRPCs presets.
	Algo       string `json:"algo,omitempty"`
	ActorType  string `json:"actor_type,omitempty"`
	CriticType string `json:"critic_type,omitempty"`

	// Tenant optionally names the requesting tenant. It is observability
	// metadata only: isolation is decided by Calibration content, never by
	// name, so two tenants asking for the same uncalibrated plan share one
	// solve and one cache entry.
	Tenant string `json:"tenant,omitempty"`
	// Calibration layers the tenant's per-call duration multipliers
	// (observed/predicted, e.g. exported from a Trainer campaign) over the
	// pure cost model. Calibrated requests join the coalescing and cache
	// keys through the calibration fingerprint, so they can never poison —
	// or be answered from — another tenant's differently-calibrated entries.
	Calibration map[string]float64 `json:"calibration,omitempty"`
	// DeadlineMillis bounds this request's wall time (capped by the
	// server's MaxDeadline; 0 means the server's DefaultDeadline). When
	// every waiter on a solve has disconnected or timed out, the solve
	// itself is canceled through the planner's context plumbing.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// Estimate is the wire form of the planner's prediction for the chosen
// plan.
type Estimate struct {
	// TimeCostSeconds is the predicted iteration makespan under the
	// config's cost semantics (serialized, or overlapped with
	// plan_for_overlap).
	TimeCostSeconds float64 `json:"time_cost_s"`
	// Cost is the search objective (TimeCostSeconds, OOM-penalized when
	// infeasible — though infeasible best plans are answered with 422, not
	// a response).
	Cost float64 `json:"cost"`
	// MaxMemBytes is the peak demand of the most loaded device.
	MaxMemBytes int64 `json:"max_mem_bytes"`
	// CallTimes are the predicted per-call durations (iteration 0).
	CallTimes map[string]float64 `json:"call_times,omitempty"`
}

// PlanResponse is the body of a 200 plan answer.
type PlanResponse struct {
	// Config is the canonical, defaults-applied config the server planned —
	// the request config after session defaults and preset expansion.
	// Replaying it (or any config with the same fingerprint) hits the plan
	// cache.
	Config realhf.ExperimentConfig `json:"config"`
	// Fingerprint identifies the chosen plan's assignments
	// (core.Plan.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Plan is the execution plan in the SavePlan serialization — feed it to
	// realhf.Planner.LoadExperimentBytes (or Client.Experiment) to rebuild
	// a runnable Experiment. Byte-identical to MarshalPlan of a direct
	// Planner.Plan for the same request.
	Plan json.RawMessage `json:"plan"`
	// Estimate is the planner's prediction for the plan.
	Estimate Estimate `json:"estimate"`
	// Cached reports the request was answered from the planner's plan cache
	// without a solve; Coalesced that it joined another request's in-flight
	// solve. Both false means this request's solve ran for it alone.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

// configWire is realhf.ExperimentConfig's fields without its methods. As
// the config field of a decode view it is decoded by the enclosing strict
// decoder itself, in that decoder's one pass, with DisallowUnknownFields
// reaching every config field. ExperimentConfig.UnmarshalJSON would instead
// start a second strict decoder over the bytes the first one had already
// scanned.
type configWire realhf.ExperimentConfig

// planRequestView is what decodePlanRequest fills: the request itself,
// except that the view's own config field shadows PlanRequest.Config
// (encoding/json prefers the shallower of two fields with one name).
type planRequestView struct {
	Config configWire `json:"config"`
	*PlanRequest
}

// planResponseView is planRequestView for a PlanResponse.
type planResponseView struct {
	Config configWire `json:"config"`
	*PlanResponse
}

// decodePlanRequest is the handler's decode of a plan request body: exactly
// one JSON value, followed by nothing but whitespace, decoded in one strict
// pass. The config is a plain struct field of that pass, so an unknown
// field anywhere in the request is an error, and a repeated config key
// merges into the first field by field, as every other repeated key does.
func decodePlanRequest(body io.Reader) (*PlanRequest, error) {
	req := new(PlanRequest)
	view := planRequestView{PlanRequest: req}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&view); err != nil {
		return nil, err
	}
	// Token, not More: More reports a stray ']' as the end of the body.
	if _, tail := dec.Token(); tail != io.EOF {
		return nil, errors.New("trailing data after the request")
	}
	req.Config = realhf.ExperimentConfig(view.Config)
	return req, nil
}

// decodePlanResponse is the client's decode of a 200 plan answer, in one
// strict pass like decodePlanRequest's: an unknown field anywhere in the
// response, the config's included, is an error.
func decodePlanResponse(body io.Reader) (*PlanResponse, error) {
	resp := new(PlanResponse)
	view := planResponseView{PlanResponse: resp}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&view); err != nil {
		return nil, err
	}
	resp.Config = realhf.ExperimentConfig(view.Config)
	// Embedding compacted the plan in transit; re-indenting restores the
	// exact Experiment.MarshalPlan / SavePlan bytes (MarshalIndent is
	// Marshal followed by Indent), keeping served plans byte-identical to
	// a direct Planner.Plan of the same request.
	var plan bytes.Buffer
	if err := json.Indent(&plan, resp.Plan, "", "  "); err == nil {
		resp.Plan = plan.Bytes()
	}
	return resp, nil
}

// Error codes carried by ErrorResponse.Code.
const (
	CodeInvalidConfig    = "invalid_config"    // 400, realhf.ErrInvalidConfig
	CodeInfeasibleMemory = "infeasible_memory" // 422, realhf.ErrInfeasibleMemory
	CodeOverloaded       = "overloaded"        // 429, ErrOverloaded
	CodeCanceled         = "solve_canceled"    // 499, realhf.ErrSolveCanceled
	CodeDeadline         = "deadline_exceeded" // 504, context.DeadlineExceeded
	CodeDraining         = "draining"          // 503, ErrDraining
	CodeWorkerLost       = "worker_lost"       // 503, realhf.ErrWorkerLost
	CodeInternal         = "internal"          // 500
)

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	// Code is the machine-readable error class (Code* constants).
	Code string `json:"code"`
	// Error is the human-readable message from the error chain.
	Error string `json:"error"`
	// RetryAfterSeconds accompanies overload (429) and drain (503)
	// rejections: the server's estimate of when capacity frees up, also
	// sent as the Retry-After header.
	RetryAfterSeconds int64 `json:"retry_after_s,omitempty"`
}

// ServerStats snapshots the server's counters; /v1/stats returns it next to
// the shared planner's realhf.PlannerStats.
type ServerStats struct {
	// Requests counts decoded plan requests (rejected decodes count under
	// Invalid only).
	Requests int64 `json:"requests"`
	// CacheHits counts requests answered inline from the planner's plan
	// cache — the admission-free fast path. After an entry's first 200
	// answer, its later hits write the body stored on that entry. A hit on a
	// memory-infeasible plan answers 422 and counts here and under
	// Infeasible.
	CacheHits int64 `json:"cache_hits"`
	// Solves counts singleflight flights opened (each runs at most one
	// planner solve); SolveErrors the flights that failed; SolvesCanceled
	// the flights canceled because every waiter disconnected or timed out.
	Solves         int64 `json:"solves"`
	SolveErrors    int64 `json:"solve_errors"`
	SolvesCanceled int64 `json:"solves_canceled"`
	// Coalesced counts requests that joined an already-in-flight identical
	// solve instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Rejected counts 429 backpressure rejections; Invalid 400s;
	// Infeasible 422s.
	Rejected   int64 `json:"rejected"`
	Invalid    int64 `json:"invalid"`
	Infeasible int64 `json:"infeasible"`
	// InFlight is the current number of open flights (queued + solving);
	// Queued the flights waiting for a solve slot; QueueHighWater the
	// largest Queued ever observed (bounded by QueueDepth by construction).
	InFlight       int64 `json:"in_flight"`
	Queued         int64 `json:"queued"`
	QueueHighWater int64 `json:"queue_high_water"`
	// Draining reports a shutdown in progress: new requests are rejected
	// with 503 while in-flight solves finish.
	Draining bool `json:"draining"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Server  ServerStats         `json:"server"`
	Planner realhf.PlannerStats `json:"planner"`
}
