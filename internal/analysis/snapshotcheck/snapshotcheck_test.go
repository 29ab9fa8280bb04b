package snapshotcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/snapshotcheck"
)

func TestSnapshotImmutability(t *testing.T) {
	// Point the curated source tables at the fixture's types for the duration
	// of the test, then restore them.
	methods, fields, tables := snapshotcheck.ReadOnlyMethods, snapshotcheck.ReadOnlyFields, snapshotcheck.SharedTables
	defer func() {
		snapshotcheck.ReadOnlyMethods, snapshotcheck.ReadOnlyFields, snapshotcheck.SharedTables = methods, fields, tables
	}()
	snapshotcheck.SharedTables = append(snapshotcheck.SharedTables[:len(tables):len(tables)],
		snapshotcheck.TableSource{PkgPath: "fixture/registry", TypeName: "rings"})
	snapshotcheck.ReadOnlyMethods = append(snapshotcheck.ReadOnlyMethods[:len(methods):len(methods)],
		snapshotcheck.MethodSource{PkgPath: "fixture/registry", TypeName: "Registry", Method: "Members"},
		snapshotcheck.MethodSource{PkgPath: "fixture/registry", TypeName: "Registry", Method: "Membership"})
	snapshotcheck.ReadOnlyFields = append(snapshotcheck.ReadOnlyFields[:len(fields):len(fields)],
		snapshotcheck.FieldSource{PkgPath: "fixture/registry", TypeName: "Change", Field: "Members"},
		snapshotcheck.FieldSource{PkgPath: "fixture/registry", TypeName: "Change", Field: "Meta"})

	analysistest.Run(t, "testdata/src/registry", "fixture/registry", snapshotcheck.Analyzer)
}
