package estimator

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Calibration layers profile feedback over the pure cost model: a set of
// per-call multipliers derived from observed runtime durations
// (observed / estimated), applied on top of the analytic tables. The pure
// cost model stays untouched — CallBreakdown and the gpumodel oracles are
// never scaled — so a nil Calibration reproduces the historical estimates
// byte for byte. A Calibration is immutable after construction, which keeps
// concurrent estimator users race-free and lets caches key entries by Key.
type Calibration struct {
	factors map[string]float64
	key     string
}

// CheckFactor rejects a calibration multiplier that is not positive and
// finite: a calibration can speed a call up or slow it down, never erase,
// negate or unbound it. Every entry point that accepts factors shares this
// check and wraps its error in its own sentinel or status.
func CheckFactor(call string, f float64) error {
	if f > 0 && !math.IsInf(f, 1) { // false for NaN too
		return nil
	}
	return fmt.Errorf("calibration factor %q = %v must be a positive finite multiplier", call, f)
}

// NewCalibration builds a calibration from per-call multipliers. Factors
// that are exactly 1 (no correction) are dropped, so a map of unit factors
// is equivalent to no calibration at all. A factor CheckFactor rejects
// makes the whole set invalid: NewCalibration then returns nil.
func NewCalibration(factors map[string]float64) *Calibration {
	clean := make(map[string]float64, len(factors))
	for name, f := range factors {
		if CheckFactor(name, f) != nil {
			return nil
		}
		if f == 1 {
			continue
		}
		clean[name] = f
	}
	if len(clean) == 0 {
		return nil
	}
	return &Calibration{factors: clean, key: calibKey(clean)}
}

// calibKey canonically encodes the factor set: sorted call names with
// fixed-precision factors, so two calibrations that would produce the same
// estimates share a key.
func calibKey(factors map[string]float64) string {
	names := make([]string, 0, len(factors))
	for name := range factors {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%d:%s=%.6g;", len(name), name, factors[name])
	}
	return b.String()
}

// Factor returns the multiplier for a call (1 when uncalibrated). A nil
// receiver is the identity calibration.
func (c *Calibration) Factor(call string) float64 {
	if c == nil {
		return 1
	}
	if f, ok := c.factors[call]; ok {
		return f
	}
	return 1
}

// Factors returns a copy of the non-unit factor map (nil when empty).
func (c *Calibration) Factors() map[string]float64 {
	if c == nil || len(c.factors) == 0 {
		return nil
	}
	out := make(map[string]float64, len(c.factors))
	for name, f := range c.factors {
		out[name] = f
	}
	return out
}

// Key returns the calibration's canonical fingerprint ("" for nil): the
// token caches and planner sessions append to their problem and plan keys so
// calibrated estimates never alias uncalibrated (or differently calibrated)
// ones.
func (c *Calibration) Key() string {
	if c == nil {
		return ""
	}
	return c.key
}

// CalibrationKey is the estimator's attached-calibration fingerprint (""
// when none) — the cache-isolation token mirrored by search.CostCache.
func (e *Estimator) CalibrationKey() string { return e.Calib.Key() }
