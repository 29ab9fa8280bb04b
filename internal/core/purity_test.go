package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"testing"
)

// TestEngineDoesNoIO holds engine.go to "no IO in the state machine" by its
// source: the file may not import the transport, a broadcaster or context, and
// the engine struct may not hold the handle, a clock, a timer or a client.
// Everything that touches the world lives in driver.go.
func TestEngineDoesNoIO(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	forbiddenImports := map[string]bool{"repro/internal/transport": true, "repro/internal/broadcast": true, "context": true}
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); forbiddenImports[path] {
			t.Errorf("engine.go imports %s", path)
		}
	}
	forbiddenFields := map[string]bool{"*Cluster": true, "simclock.Clock": true, "simclock.Timer": true, "transport.Client": true}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok || spec.Name.Name != "engine" {
			return true
		}
		found = true
		for _, field := range spec.Type.(*ast.StructType).Fields.List {
			if typ := types.ExprString(field.Type); forbiddenFields[typ] {
				t.Errorf("type engine holds a %s (field %v)", typ, field.Names)
			}
		}
		return false
	})
	if !found {
		t.Fatal("engine.go declares no type engine")
	}
}
