package simclockcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/simclockcheck"
)

func TestProtocolPackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/core", "fixture/core", simclockcheck.Analyzer)
}

func TestNonProtocolPackage(t *testing.T) {
	analysistest.Run(t, "testdata/src/util", "fixture/util", simclockcheck.Analyzer)
}

func TestIsProtocolPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/core":        true,
		"repro/internal/apps/txn":    true,
		"repro/internal/experiments": true,
		"repro/examples/centralized": false,
		"repro/internal/tcpnet":      false,
		"repro/internal/harness":     false,
		"repro/cmd/rapid":            false,
		"fixture/core":               true,
	} {
		if got := simclockcheck.IsProtocolPackage(path); got != want {
			t.Errorf("IsProtocolPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
