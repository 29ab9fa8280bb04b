// Package suite assembles rapid-vet's full analyzer set. It exists so the
// vettool binary and the self-vet test agree on what "the suite" is without
// the framework package importing its own analyzers.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/simclockcheck"
	"repro/internal/analysis/snapshotcheck"
)

// All returns every analyzer rapid-vet enforces, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simclockcheck.Analyzer,
		snapshotcheck.Analyzer,
	}
}
