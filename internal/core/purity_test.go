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

// TestOnlyRunTouchesTheEngine holds the engine to one writer by its source:
// the engine Cluster.initialize builds is handed to `go e.run` and to nothing
// else, no struct or package-level variable can hold one (bar outbox, the
// engine's own adapter for its consensus instance), and no engine method —
// nor anything in engine.go or join.go — starts a goroutine that could touch
// engine state beside run.
func TestOnlyRunTouchesTheEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	mentions := func(n ast.Node, name string) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || ok && id.Name == name
			return !found
		})
		return found
	}
	calls := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				return file != "engine.go" || n.Name.Name != "outbox"
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if mentions(field.Type, "engine") {
						t.Errorf("%s: a struct field holds an engine", fset.Position(field.Pos()))
					}
				}
			case *ast.GoStmt:
				if file == "engine.go" || file == "join.go" {
					t.Errorf("%s: a go statement in %s", fset.Position(n.Pos()), file)
				}
			}
			return true
		})
		for _, decl := range parsed.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if decl.Tok == token.VAR && (mentions(decl, "engine") || mentions(decl, "newEngine")) {
					t.Errorf("%s: a package-level variable holds an engine", fset.Position(decl.Pos()))
				}
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil {
					recv = types.ExprString(decl.Recv.List[0].Type)
				}
				if recv == "*engine" || recv == "engine" {
					ast.Inspect(decl, func(n ast.Node) bool {
						if g, ok := n.(*ast.GoStmt); ok {
							t.Errorf("%s: engine method %s starts a goroutine", fset.Position(g.Pos()), decl.Name.Name)
						}
						return true
					})
				}
				if recv == "*Cluster" && decl.Name.Name == "initialize" {
					calls += handsEngineOnlyToRun(t, fset, decl)
				} else if decl.Name.Name != "newEngine" && mentions(decl, "newEngine") {
					t.Errorf("%s: %s calls newEngine; only Cluster.initialize may", fset.Position(decl.Pos()), decl.Name.Name)
				}
			}
		}
	}
	if calls != 1 {
		t.Errorf("Cluster.initialize calls newEngine %d times, want once", calls)
	}
}

// handsEngineOnlyToRun checks that the engine init builds is used by nothing
// but one `go e.run(…)`, and returns how many times init calls newEngine.
func handsEngineOnlyToRun(t *testing.T, fset *token.FileSet, init *ast.FuncDecl) int {
	calls, runs := 0, 0
	var eng *ast.Ident
	ours := map[*ast.Ident]bool{}
	ast.Inspect(init.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && types.ExprString(call.Fun) == "newEngine" {
				eng, _ = n.Lhs[0].(*ast.Ident)
				ours[eng] = true
			}
		case *ast.CallExpr:
			if types.ExprString(n.Fun) == "newEngine" {
				calls++
			}
		case *ast.GoStmt:
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "run" {
				if x, ok := sel.X.(*ast.Ident); ok && eng != nil && x.Name == eng.Name {
					ours[x] = true
					runs++
				}
			}
		}
		return true
	})
	if eng == nil {
		return calls
	}
	ast.Inspect(init.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == eng.Name && !ours[id] {
			t.Errorf("%s: Cluster.initialize uses its engine %s outside `go %s.run`", fset.Position(id.Pos()), id.Name, id.Name)
		}
		return true
	})
	if runs != 1 {
		t.Errorf("Cluster.initialize starts %d drivers for its engine, want one `go %s.run`", runs, eng.Name)
	}
	return calls
}

// TestOnlyTheDriverBlocks: a blocking call — a transport Send, edgefd.Probe
// around one, or the deadline that bounds one — appears in no non-test file of
// the package but driver.go, where exactly two functions make one: the probe
// and phase 1 of the join. Everything that waits on a view change or a period
// — phase 2 of a join, a Rapid-C poll — is a one-way message pair. And
// driver.go starts one kind of goroutine, the probe's.
func TestOnlyTheDriverBlocks(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	senders := map[string]bool{}
	goStmts := 0
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
				if g, ok := n.(*ast.GoStmt); ok && file == "driver.go" {
					goStmts++
					if types.ExprString(g.Call.Fun) != "c.probe" {
						t.Errorf("driver.go starts %s as a goroutine; only the probe runs as one", types.ExprString(g.Call.Fun))
					}
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := types.ExprString(sel)
				if sel.Sel.Name != "Send" && name != "simclock.WithTimeout" && name != "edgefd.Probe" {
					return true
				}
				if file != "driver.go" {
					t.Errorf("%s calls %s: only driver.go may block", file, name)
				} else if fn, ok := decl.(*ast.FuncDecl); ok && name != "simclock.WithTimeout" {
					senders[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	if len(senders) != 2 || !senders["join"] || !senders["probe"] {
		t.Errorf("driver.go blocks on the transport in %v, want exactly join and probe", senders)
	}
	if goStmts != 1 {
		t.Errorf("driver.go holds %d go statements, want one, the probe's", goStmts)
	}
}

// TestNoHandlerWaitsForTheEngine: on every path from HandleRequest — the
// Cluster methods it calls, and theirs — a receive is from the caller's
// context, the stop channel, or, in handlePreJoin alone, phase 1's reply: no
// handler waits on a channel the engine fills for anything else.
func TestNoHandlerWaitsForTheEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	methods := map[string]*ast.FuncDecl{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range parsed.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && types.ExprString(fn.Recv.List[0].Type) == "*Cluster" {
				methods[fn.Name.Name] = fn
			}
		}
	}
	seen := map[string]bool{}
	for queue := []string{"HandleRequest"}; len(queue) > 0; queue = queue[1:] {
		name := queue[0]
		fn := methods[name]
		if seen[name] || fn == nil {
			continue
		}
		seen[name] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && types.ExprString(sel.X) == "c" {
					queue = append(queue, sel.Sel.Name)
				}
			case *ast.UnaryExpr:
				from := types.ExprString(n.X)
				if n.Op == token.ARROW && from != "ctx.Done()" && from != "c.stopCh" && (name != "handlePreJoin" || from != "reply") {
					t.Errorf("%s: %s, on a HandleRequest path, receives from %s", fset.Position(n.Pos()), name, from)
				}
			}
			return true
		})
	}
	if !seen["handlePreJoin"] || !seen["takeAnswer"] {
		t.Fatalf("the walk from HandleRequest reached %v, want handlePreJoin and takeAnswer among them", seen)
	}
}
