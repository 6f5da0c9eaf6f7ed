// Package checkpoint serializes a training campaign's durable state — the
// incumbent plan (via the SavePlan codec), the profile-feedback
// calibration factors, and the session's iteration/replan counters — so a
// killed process resumes exactly where it stopped (realhf.Trainer.Checkpoint
// / realhf.Planner.ResumeTrain).
//
// The wire format follows the same canonical-codec contract as the root
// package's wire.go: a versioned JSON document, written with a canonical
// field-by-field marshal (realvet's fieldcover proves every exported State
// field reaches the bytes), decoded strictly (unknown fields and version
// skew are errors, never silent drops), and byte-deterministic — two
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
)

// Version is the current checkpoint wire version. Decoders reject other
// versions outright: campaign state is too entangled for silent best-effort
// migration, and a versioned hard failure is the contract wire.go set.
const Version = 1

// State is a campaign snapshot — everything a Trainer needs beyond its
// (caller-re-supplied) config and options to resume bit-exactly: the next
// iteration's replan decision is a pure function of these fields plus the
// config, so restoring them replays the uninterrupted session.
type State struct {
	// Version is the wire version (see Version).
	Version int
	// Iteration is the number of iterations fully executed (the next Step
	// runs iteration Iteration).
	Iteration int
	// Replans and Switches are the session counters: replan attempts and
	// adopted plan changes (including shrink-replans and resizes).
	Replans  int
	Switches int
	// WorkerFailures counts workers lost (and survived) so far.
	WorkerFailures int
	// SwitchCostV and TotalMakespanV mirror the campaign accounting:
	// charged §5 reallocation total and virtual campaign wall time.
	SwitchCostV    float64
	TotalMakespanV float64
	// PendingSwitchCostV is reallocation charged but not yet reported (a
	// switch adopted after the last executed iteration).
	PendingSwitchCostV float64
	// Drifted records that profile feedback demanded a replan before the
	// next iteration.
	Drifted bool
	// Nodes is the cluster scale the campaign currently runs at (shrinks
	// and resizes applied) — it overrides the resuming config's Nodes.
	Nodes int
	// PlannedGenLen is the generation length the incumbent plan was last
	// (re)considered at; resuming restores it so the next Step's replan
	// trigger fires exactly as it would have.
	PlannedGenLen int
	// Plan is the incumbent plan in the SavePlan wire format.
	Plan json.RawMessage
	// PlanFingerprint is the incumbent's canonical fingerprint, checked on
	// resume: a checkpoint whose plan bytes decode to a different plan than
	// the one that was saved is corrupt.
	PlanFingerprint string
	// Calibration is the profile-feedback state: per-call
	// observed/predicted multipliers (empty when uncalibrated).
	Calibration map[string]float64
}

// stateJSON is the wire shadow of State. Field order here is the canonical
// byte order of the checkpoint file.
type stateJSON struct {
	Version            int                `json:"version"`
	Iteration          int                `json:"iteration"`
	Replans            int                `json:"replans"`
	Switches           int                `json:"switches"`
	WorkerFailures     int                `json:"worker_failures"`
	SwitchCostV        float64            `json:"switch_cost_v"`
	TotalMakespanV     float64            `json:"total_makespan_v"`
	PendingSwitchCostV float64            `json:"pending_switch_cost_v"`
	Drifted            bool               `json:"drifted,omitempty"`
	Nodes              int                `json:"nodes"`
	PlannedGenLen      int                `json:"planned_gen_len"`
	Plan               json.RawMessage    `json:"plan"`
	PlanFingerprint    string             `json:"plan_fingerprint"`
	Calibration        map[string]float64 `json:"calibration,omitempty"`
}

// MarshalJSON is the canonical checkpoint encoding: every exported State
// field, stable field order, deterministic bytes (encoding/json sorts the
// calibration map's keys). It is the fieldcover-checked canonical method —
// adding a State field without extending this marshal is a realvet break,
// not a silently-dropped-on-resume bug.
//
// The bytes are json.MarshalIndent's of the whole document, but the plan is
// scanned once: the other fields are indented around a null placeholder,
// and the plan is indented into its place.
func (s *State) MarshalJSON() ([]byte, error) {
	doc, err := json.MarshalIndent(stateJSON{
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
		PlanFingerprint:    s.PlanFingerprint,
		Calibration:        s.Calibration,
	}, "", "  ")
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
// state), so is anything but whitespace after the document, and a version
// other than Version is rejected.
func Read(r io.Reader) (*State, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var in stateJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	// Token, not More: More reports a stray ']' as the end of the input.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("checkpoint: decode: trailing data after the checkpoint")
	}
	if in.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (this build reads %d)", in.Version, Version)
	}
	return &State{
		Version:            in.Version,
		Iteration:          in.Iteration,
		Replans:            in.Replans,
		Switches:           in.Switches,
		WorkerFailures:     in.WorkerFailures,
		SwitchCostV:        in.SwitchCostV,
		TotalMakespanV:     in.TotalMakespanV,
		PendingSwitchCostV: in.PendingSwitchCostV,
		Drifted:            in.Drifted,
		Nodes:              in.Nodes,
		PlannedGenLen:      in.PlannedGenLen,
		Plan:               in.Plan,
		PlanFingerprint:    in.PlanFingerprint,
		Calibration:        in.Calibration,
	}, nil
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
