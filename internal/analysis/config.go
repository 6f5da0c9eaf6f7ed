package analysis

import (
	"path"
	"strings"
)

// This file is the suite's shared facts/config layer: one declaration of
// which packages carry which contracts, consumed by the runner (run.go)
// and by the analyzers that need cross-cutting knowledge (fieldcover's
// extra key-struct roots, ctxerr's boundary set). DESIGN.md's
// "Machine-checked invariants" section mirrors this table.

// ModulePath is the module all scopes are relative to.
const ModulePath = "realhf"

// A PackageScope selects a package, optionally narrowed to specific files.
type PackageScope struct {
	// Path is the import path relative to the module root ("" = the root
	// package itself).
	Path string
	// Files narrows the scope to these base names; nil covers the package.
	Files []string
}

func (s PackageScope) importPath() string {
	if s.Path == "" {
		return ModulePath
	}
	return ModulePath + "/" + s.Path
}

// DeterministicScopes lists the packages whose code must be
// byte-reproducible: plans, timelines, fingerprints and cache keys are all
// derived here, from the graphs internal/dfg lowers, so a single unsorted
// map iteration or wall-clock read can poison the shared caches (DESIGN.md
// "Determinism contract"). maporder and wallclock apply to exactly this set. In the root package only the
// canonical codec and fingerprint files are deterministic surface — the
// planner/trainer session machinery legitimately measures wall time.
var DeterministicScopes = []PackageScope{
	{Path: "internal/dfg"},
	{Path: "internal/core"},
	{Path: "internal/search"},
	{Path: "internal/estimator"},
	{Path: "internal/realloc"},
	{Path: "internal/runtime"},
	{Path: "", Files: []string{"wire.go", "planner.go"}},
}

// CtxErrScopes is where ctxerr's loop rule applies: long-running solver
// and serve loops must observe ctx.Done()/ctx.Err() so cancellation and
// deadlines propagate (DESIGN.md "Context plumbing").
var CtxErrScopes = []PackageScope{
	{Path: "internal/search"},
	{Path: "internal/serve"},
	{Path: ""},
}

// ErrorBoundaryPackages is where ctxerr's fmt.Errorf rule applies: every
// error constructed on a path that can cross the serve boundary must
// %w-wrap one of the exported sentinels (ErrInvalidConfig,
// ErrInfeasibleMemory, ErrSolveCanceled, ErrInvalidRunOptions,
// ErrWorkerLost) so errors.Is dispatch — and the HTTP status taxonomy
// built on it — keeps working remotely.
var ErrorBoundaryPackages = []PackageScope{
	{Path: "internal/serve"},
	{Path: ""},
}

// FieldCoverScopes is where fieldcover looks for cache-key structs: the
// root package (ExperimentConfig and the wire codec), internal/core
// (Plan/Assignment fingerprints) and internal/checkpoint (the campaign
// checkpoint codec — a State field missing from its marshal would be
// silently dropped on resume).
var FieldCoverScopes = []PackageScope{
	{Path: ""},
	{Path: "internal/core"},
	{Path: "internal/checkpoint"},
}

// canonicalMethodNames are the method names that mark a struct as a
// cache-key or wire-codec type: each such method must read every exported
// field of its receiver (fieldcover), so adding a field without extending
// the key is a realvet break instead of a cache-poisoning bug.
var canonicalMethodNames = map[string]bool{
	"Fingerprint":       true,
	"fingerprint":       true,
	"AppendFingerprint": true,
	"appendFingerprint": true,
	"MarshalJSON":       true,
	"MarshalPlan":       true,
}

// A FieldCoverExtra pins a struct that does not own a canonical method but
// is still part of a cache key, because a canonical method of another
// struct reads it field by field. The analyzer computes the Via method's
// closure and requires every exported field of Type to be read inside it.
type FieldCoverExtra struct {
	// Pkg is the package (relative path, "" = root) whose Via method is
	// the key root; the check runs while analyzing this package.
	Pkg string
	// ViaType and ViaMethod name the canonical method whose closure must
	// cover the target.
	ViaType   string
	ViaMethod string
	// TypePkg/TypeName identify the covered struct (TypePkg relative,
	// "" = root; may differ from Pkg for cross-package key components).
	TypePkg  string
	TypeName string
}

// FieldCoverExtras: the RPC list is part of ExperimentConfig's problem
// key, and mesh/strategy are the value payload of Assignment's
// fingerprint — adding a field to any of them without extending the
// corresponding encoder would alias distinct problems or plans in the
// shared caches.
var FieldCoverExtras = []FieldCoverExtra{
	{Pkg: "", ViaType: "ExperimentConfig", ViaMethod: "Fingerprint",
		TypePkg: "", TypeName: "ModelFunctionCallDef"},
	{Pkg: "internal/core", ViaType: "Assignment", ViaMethod: "AppendFingerprint",
		TypePkg: "internal/parallel", TypeName: "Strategy"},
	{Pkg: "internal/core", ViaType: "Assignment", ViaMethod: "AppendFingerprint",
		TypePkg: "internal/mesh", TypeName: "Mesh"},
	// Assignment is also the value payload of the plan wire codec: every
	// exported field (including the searched Offload decision) must reach
	// the serialized form, or a saved plan would silently drop plan
	// dimensions on the round trip.
	{Pkg: "internal/core", ViaType: "Plan", ViaMethod: "MarshalJSON",
		TypePkg: "internal/core", TypeName: "Assignment"},
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrderAnalyzer,
		WallClockAnalyzer,
		FieldCoverAnalyzer,
		CtxErrAnalyzer,
	}
}

// scopeFor returns the file scope (nil = whole package, empty = none) of
// an analyzer over an import path.
func scopeFor(analyzer, importPath string) (files []string, enabled bool) {
	var scopes []PackageScope
	switch analyzer {
	case "maporder", "wallclock":
		scopes = DeterministicScopes
	case "fieldcover":
		scopes = FieldCoverScopes
	case "ctxerr":
		// The runner enables ctxerr on the union of its two sub-scopes;
		// the analyzer narrows the fmt.Errorf rule itself.
		scopes = append(append([]PackageScope{}, CtxErrScopes...), ErrorBoundaryPackages...)
	default:
		return nil, false
	}
	for _, s := range scopes {
		if s.importPath() == importPath {
			if s.Files == nil {
				return nil, true
			}
			files = append(files, s.Files...)
			enabled = true
		}
	}
	return files, enabled
}

// inScope reports whether a diagnostic's file falls inside the scope's
// file narrowing.
func inScope(files []string, filename string) bool {
	if files == nil {
		return true
	}
	base := path.Base(strings.ReplaceAll(filename, "\\", "/"))
	for _, f := range files {
		if f == base {
			return true
		}
	}
	return false
}

// inPackageScope reports whether an import path is in a scope list
// (ignoring file narrowing) — used by analyzers that self-scope sub-rules.
func inPackageScope(scopes []PackageScope, importPath string) bool {
	for _, s := range scopes {
		if s.importPath() == importPath {
			return true
		}
	}
	return false
}
