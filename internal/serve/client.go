package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"realhf"
)

// Errors the client maps overload and drain rejections onto; the rest of
// the taxonomy maps back to the realhf sentinels (see ServerError.Unwrap).
var (
	// ErrOverloaded is a 429: the server's admission queue is full. Back
	// off for the ServerError's RetryAfter and retry.
	ErrOverloaded = errors.New("plan server overloaded")
	// ErrDraining is a 503: the server is shutting down gracefully.
	ErrDraining = errors.New("plan server draining")
)

// ServerError is a non-200 answer from the plan server, preserving the
// machine-readable code and mapping it back onto the realhf error taxonomy
// so callers use errors.Is exactly as they would against a local Planner.
type ServerError struct {
	// StatusCode is the HTTP status; Code the wire error class (Code*
	// constants); Message the human-readable chain from the server.
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's backoff hint on overload/drain rejections
	// (zero when it sent none).
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("plan server: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
}

// Unwrap maps the wire code onto the sentinel a local Planner call would
// have returned, so errors.Is(err, realhf.ErrInvalidConfig) etc. hold
// across the wire.
func (e *ServerError) Unwrap() error {
	switch e.Code {
	case CodeInvalidConfig:
		return realhf.ErrInvalidConfig
	case CodeInfeasibleMemory:
		return realhf.ErrInfeasibleMemory
	case CodeCanceled:
		return realhf.ErrSolveCanceled
	case CodeDeadline:
		return context.DeadlineExceeded
	case CodeOverloaded:
		return ErrOverloaded
	case CodeDraining:
		return ErrDraining
	case CodeWorkerLost:
		return realhf.ErrWorkerLost
	}
	return nil
}

// Client is the typed client for a plan server.
type Client struct {
	base   string
	hc     *http.Client
	tenant string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom transport,
// TLS, tracing).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithTenant stamps every request with a tenant name. Observability only —
// isolation follows calibration content, not names.
func WithTenant(name string) ClientOption {
	return func(c *Client) { c.tenant = name }
}

// NewClient returns a client for the plan server at baseURL (e.g.
// "http://127.0.0.1:7799").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base: trimTrailingSlash(baseURL),
		hc:   &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Plan requests a plan for cfg — the remote counterpart of Planner.Plan.
// A ctx deadline travels to the server as the request deadline, and ctx
// cancellation aborts the HTTP request (deregistering this client from the
// coalesced solve server-side). Calibration factors ride along as the
// tenant's cost-model multipliers.
func (c *Client) Plan(ctx context.Context, cfg realhf.ExperimentConfig, calibration map[string]float64) (*PlanResponse, error) {
	return c.Do(ctx, &PlanRequest{Config: cfg, Calibration: calibration})
}

// Do sends a fully specified PlanRequest. The client's tenant is applied
// when the request names none, and a ctx deadline overrides a zero
// DeadlineMillis.
func (c *Client) Do(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	r := *req
	if r.Tenant == "" {
		r.Tenant = c.tenant
	}
	if r.DeadlineMillis == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if ms := int64(time.Until(dl) / time.Millisecond); ms > 0 {
				r.DeadlineMillis = ms
			}
		}
	}
	body, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("serve: encode plan request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathPlan, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	out, err := decodePlanResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: decode plan response: %w", err)
	}
	return out, nil
}

// Stats fetches the server and planner counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStats, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decode stats response: %w", err)
	}
	return &out, nil
}

// Health reports whether the server is accepting work (nil), draining
// (ErrDraining via ServerError), or unreachable.
func (c *Client) Health(ctx context.Context) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Experiment rebuilds a runnable realhf.Experiment from the response's
// plan bytes against a local planning session — the remote counterpart of
// Planner.LoadExperiment. The local planner must describe the same cluster
// the server planned for.
func (r *PlanResponse) Experiment(p *realhf.Planner) (*realhf.Experiment, error) {
	return p.LoadExperimentBytes(r.Plan, r.Config)
}

// decodeError converts a non-200 answer into a *ServerError, tolerating
// non-JSON bodies from intermediaries.
func decodeError(resp *http.Response) error {
	se := &ServerError{StatusCode: resp.StatusCode, Code: CodeInternal}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	var wire ErrorResponse
	if err := json.Unmarshal(body, &wire); err == nil && wire.Code != "" {
		se.Code = wire.Code
		se.Message = wire.Error
		se.RetryAfter = time.Duration(wire.RetryAfterSeconds) * time.Second
	} else {
		se.Message = string(body)
	}
	if se.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}
