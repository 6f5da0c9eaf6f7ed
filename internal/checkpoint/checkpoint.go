// Package checkpoint serializes a training campaign's durable state — the
// incumbent plan (via the SavePlan codec), the profile-feedback
// calibration factors, and the session's iteration/replan counters — so a
// killed process resumes exactly where it stopped (realhf.Trainer.Checkpoint
// / realhf.Planner.ResumeTrain).
//
// The wire format follows the same canonical-codec contract as the root
// package's wire.go: State is its own wire type, a versioned JSON document
// whose field tags fix the canonical byte order, encoded whole through a
// method-free conversion (so realvet's fieldcover sees every field reach the
// bytes), decoded strictly (unknown fields, version skew and out-of-range
// values are errors, never silent drops), and byte-deterministic — two
// checkpoints of identical state are identical files, and a round trip is
// bit-stable. Save writes through a temp file and an atomic rename, so a
// crash mid-checkpoint leaves the previous checkpoint intact rather than a
// torn file.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
)

// Version is the current checkpoint wire version. Decoders reject other
// versions outright: campaign state is too entangled for silent best-effort
// migration, and a versioned hard failure is the contract wire.go set.
const Version = 1

// State is a campaign snapshot — everything a Trainer needs beyond its
// (caller-re-supplied) config and options to resume bit-exactly: the next
// iteration's replan decision is a pure function of these fields plus the
// config, so restoring them replays the uninterrupted session. Field order
// is the canonical byte order of the checkpoint file; Campaign's fields sit
// inline between version and nodes.
type State struct {
	// Version is the wire version (see Version).
	Version int `json:"version"`
	// Campaign is the Trainer's running state, checkpointed and restored
	// whole.
	Campaign
	// Nodes is the cluster scale the campaign currently runs at (shrinks
	// and resizes applied) — it overrides the resuming config's Nodes.
	Nodes int `json:"nodes"`
	// PlannedGenLen is the generation length the incumbent plan was last
	// (re)considered at; resuming restores it so the next Step's replan
	// trigger fires exactly as it would have.
	PlannedGenLen int `json:"planned_gen_len"`
	// Plan is the incumbent plan in the SavePlan wire format.
	Plan json.RawMessage `json:"plan"`
	// PlanFingerprint is the incumbent's canonical fingerprint, checked on
	// resume: a checkpoint whose plan bytes decode to a different plan than
	// the one that was saved is corrupt.
	PlanFingerprint string `json:"plan_fingerprint"`
	// Calibration is the profile-feedback state: per-call
	// observed/predicted multipliers (empty when uncalibrated).
	Calibration map[string]float64 `json:"calibration,omitempty"`
}

// Campaign is the part of a campaign's durable state the Trainer updates as
// it runs, and the Trainer's only copy of it. Every number is a count or a
// total and is never negative. It must have no JSON methods: encoding/json
// then inlines its fields into State's document, where a promoted
// MarshalJSON would instead encode the whole checkpoint as Campaign alone.
type Campaign struct {
	// Iteration is the number of iterations fully executed (the next Step
	// runs iteration Iteration).
	Iteration int `json:"iteration"`
	// Replans and Switches are the session counters: replan attempts and
	// adopted plan changes (including shrink-replans and resizes).
	Replans  int `json:"replans"`
	Switches int `json:"switches"`
	// WorkerFailures counts workers lost (and survived) so far.
	WorkerFailures int `json:"worker_failures"`
	// SwitchCostV and TotalMakespanV are the campaign accounting: charged
	// §5 reallocation total and virtual campaign wall time.
	SwitchCostV    float64 `json:"switch_cost_v"`
	TotalMakespanV float64 `json:"total_makespan_v"`
	// PendingSwitchCostV is reallocation charged but not yet reported (a
	// switch adopted after the last executed iteration).
	PendingSwitchCostV float64 `json:"pending_switch_cost_v"`
	// Drifted records that profile feedback demanded a replan before the
	// next iteration.
	Drifted bool `json:"drifted,omitempty"`
}

// stateWire is State without its methods, so MarshalJSON hands the whole
// document to encoding/json without recursing.
type stateWire State

// MarshalJSON is the canonical checkpoint encoding: every State field,
// stable field order, deterministic bytes (encoding/json sorts the
// calibration map's keys).
//
// The bytes are json.MarshalIndent's of the whole document, but the plan is
// scanned once: the other fields are indented around a null placeholder,
// and the plan is indented into its place.
func (s *State) MarshalJSON() ([]byte, error) {
	w := stateWire(*s)
	w.Plan = nil
	doc, err := json.MarshalIndent(w, "", "  ")
	if err != nil || s.Plan == nil {
		return doc, err
	}
	// No string field precedes the plan, so its key occurs first here.
	at := bytes.Index(doc, []byte(`"plan": null`)) + len(`"plan": `)
	var b bytes.Buffer
	b.Grow(len(doc) + 2*len(s.Plan))
	b.Write(doc[:at])
	// Marshal compacts a RawMessage, dropping the trailing whitespace that
	// Indent would keep.
	if err := json.Indent(&b, bytes.TrimRight(s.Plan, " \t\r\n"), "  ", "  "); err != nil {
		return nil, fmt.Errorf("checkpoint: plan: %w", err)
	}
	// Marshal also HTML-escapes the plan's strings; Indent does not.
	if htmlUnsafe(s.Plan) {
		plan := bytes.Clone(b.Bytes()[at:])
		b.Truncate(at)
		json.HTMLEscape(&b, plan)
	}
	b.Write(doc[at+len("null"):])
	return b.Bytes(), nil
}

// htmlUnsafe reports whether b holds a byte json.Marshal escapes: <, > or
// &, or the lead byte of U+2028 and U+2029.
func htmlUnsafe(b []byte) bool {
	return bytes.IndexByte(b, '<') >= 0 || bytes.IndexByte(b, '>') >= 0 ||
		bytes.IndexByte(b, '&') >= 0 || bytes.IndexByte(b, 0xE2) >= 0
}

// Write encodes the state to w in the canonical format.
func Write(w io.Writer, s *State) error {
	// An unset version means "current"; stamp a copy, never the caller's
	// value.
	if s.Version == 0 {
		tmp := *s
		tmp.Version = Version
		s = &tmp
	}
	if s.Version != Version {
		return fmt.Errorf("checkpoint: cannot write version %d (this build writes %d)", s.Version, Version)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		return fmt.Errorf("checkpoint: marshal: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// Read strictly decodes a checkpoint: unknown fields are an error (a field
// this build does not understand cannot be silently dropped from campaign
// state), so is anything but whitespace after the document, a version other
// than Version, and a value no campaign can hold (see check).
func Read(r io.Reader) (*State, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := new(State)
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	// Token, not More: More reports a stray ']' as the end of the input.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("checkpoint: decode: trailing data after the checkpoint")
	}
	if s.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (this build reads %d)", s.Version, Version)
	}
	if err := s.check(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return s, nil
}

// check enforces the ranges campaign state lives in, by the rules the
// Trainer's config validation applies to the same quantities: no Campaign
// number is negative, and the campaign runs on at least one node at a
// non-negative generation length.
func (s *State) check() error {
	c := reflect.ValueOf(s.Campaign)
	for i := 0; i < c.NumField(); i++ {
		f := c.Field(i)
		if f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			return fmt.Errorf("%s = %v must not be negative", c.Type().Field(i).Name, f)
		}
	}
	if s.Nodes < 1 {
		return fmt.Errorf("nodes = %d must be positive", s.Nodes)
	}
	if s.PlannedGenLen < 0 {
		return fmt.Errorf("planned GenLen = %d must not be negative", s.PlannedGenLen)
	}
	return nil
}

// Save writes the checkpoint durably: the bytes go to a temp file in the
// destination directory, are fsynced, and replace path with an atomic
// rename — a crash mid-save leaves the previous checkpoint readable, never
// a torn half-file.
func Save(path string, s *State) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmp := f.Name()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	return nil
}

// Load reads a checkpoint saved by Save.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open: %w", err)
	}
	defer f.Close()
	return Read(f)
}
