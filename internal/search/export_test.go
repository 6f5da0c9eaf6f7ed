package search

import (
	"realhf/internal/core"
	"realhf/internal/estimator"
)

// CheckShapeSpace exposes checkShapeSpace to the external tests, which build
// the algorithm presets' problems through the public API.
func CheckShapeSpace(e *estimator.Estimator, p *core.Plan, lvl PruneLevel, offloadSearch bool) (int, error) {
	return checkShapeSpace(e, p, lvl, offloadSearch)
}
