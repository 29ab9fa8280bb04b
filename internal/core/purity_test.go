package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineDoesNoIO holds the two state machines to "no IO" by their source:
// engine.go and join.go may not import the transport, a broadcaster or
// context, and neither the engine struct nor the joiner may hold the handle, a
// clock, a timer or a client. Everything that touches the world lives in
// driver.go.
func TestEngineDoesNoIO(t *testing.T) {
	for file, typ := range map[string]string{"engine.go": "engine", "join.go": "joiner"} {
		parsed, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		forbiddenImports := map[string]bool{"repro/internal/transport": true, "repro/internal/broadcast": true, "context": true}
		for _, imp := range parsed.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbiddenImports[path] {
				t.Errorf("%s imports %s", file, path)
			}
		}
		forbiddenFields := map[string]bool{"*Cluster": true, "simclock.Clock": true, "simclock.Timer": true, "transport.Client": true}
		found := false
		ast.Inspect(parsed, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok || spec.Name.Name != typ {
				return true
			}
			found = true
			for _, field := range spec.Type.(*ast.StructType).Fields.List {
				if ftyp := types.ExprString(field.Type); forbiddenFields[ftyp] {
					t.Errorf("type %s holds a %s (field %v)", typ, ftyp, field.Names)
				}
			}
			return false
		})
		if !found {
			t.Fatalf("%s declares no type %s", file, typ)
		}
	}
}

// TestOnlyTheDriverBlocks: a blocking call — a transport Send, or the
// deadline that bounds one — appears in no non-test file of the package but
// driver.go, where the join rounds and a Rapid-C member's polls make theirs
// (a probe's is edgefd.Probe's).
func TestOnlyTheDriverBlocks(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	senders := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range parsed.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Send" && types.ExprString(sel) != "simclock.WithTimeout" {
					return true
				}
				if file != "driver.go" {
					t.Errorf("%s calls %s: only driver.go may block", file, types.ExprString(sel))
				} else if fn, ok := decl.(*ast.FuncDecl); ok && sel.Sel.Name == "Send" {
					senders[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	if !senders["join"] || !senders["poll"] {
		t.Errorf("driver.go sends from %v, want join and poll among them", senders)
	}
}
