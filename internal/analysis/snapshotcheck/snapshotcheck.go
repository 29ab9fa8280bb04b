// Package snapshotcheck enforces snapshot immutability: the slices and maps
// handed out by the membership snapshot accessors are shared — the engine
// builds one sorted membership per configuration, and the snapshot, every
// ViewChange.Members, every JoinResponse.Members, every GetViewResponse.Members
// and every send's target list hold that very slice — so callers must treat
// them as read-only. Enforcing this
// at vet time is what let the engine drop its per-consumer O(N) copies, and
// what would let the accessor that still copies defensively (Cluster.Members)
// drop its copy without auditing every caller first.
//
// The check tracks expressions whose value comes from a curated set of
// read-only sources — accessor methods and snapshot-carrying struct fields —
// directly or through a local variable, and reports element writes, map
// writes/deletes, appends, and in-place sorts of them. A caller that needs a
// mutable copy must clone first (append([]T(nil), s...)); a deliberate
// exception carries //lint:allow snapshot <reason>.
//
// The same rule guards copy-on-write tables (view.tables, which every view of
// one member list in a process aliases until it mutates): every field of such
// a struct is a read-only source, and assigning the field itself, taking the
// address of one of its elements or copying into it is a write too — except
// in a function whose doc comment carries the marker "owned-tables", which
// says that the function runs after the tables were made the writer's own.
package snapshotcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// MethodSource identifies an accessor method whose result is read-only.
type MethodSource struct {
	PkgPath, TypeName, Method string
}

// FieldSource identifies a struct field whose value is read-only for
// everyone but the engine that published it.
type FieldSource struct {
	PkgPath, TypeName, Field string
}

// ReadOnlyMethods is the curated accessor set. Tests may append fixture
// entries before running the analyzer.
var ReadOnlyMethods = []MethodSource{
	{"repro/internal/core", "Cluster", "Members"},
	{"repro/internal/core", "Cluster", "Metadata"},
	{"repro/internal/view", "View", "Members"},
	{"repro/internal/view", "View", "MemberAddrs"},
	{"repro/internal/view", "View", "Membership"},
	{"repro/internal/harness", "Fleet", "RapidStats"},
}

// ReadOnlyFields is the curated field set: data published once and read by
// many goroutines.
var ReadOnlyFields = []FieldSource{
	{"repro/internal/core", "ViewChange", "Members"},
	{"repro/internal/core", "ViewChange", "Changes"},
	{"repro/internal/core", "snapshot", "members"},
	{"repro/internal/core", "engine", "members"},
	{"repro/internal/core", "engine", "addrs"},
	{"repro/internal/core", "engine", "voters"},
	{"repro/internal/core", "engine", "ensemble"},
	{"repro/internal/core", "engine", "subjects"},
	{"repro/internal/edgefd", "Scheduler", "subjects"},
	{"repro/internal/remoting", "JoinResponse", "Members"},
	{"repro/internal/remoting", "GetViewResponse", "Members"},
}

// TableSource identifies a struct type whose fields are copy-on-write tables.
type TableSource struct {
	PkgPath, TypeName string
}

// SharedTables is the curated set of copy-on-write table types.
var SharedTables = []TableSource{
	{"repro/internal/view", "tables"},
}

// OwnerMarker, in a function's doc comment, lets it write shared tables.
const OwnerMarker = "owned-tables"

// sorters are the standard in-place sorts whose first argument is mutated.
var sorters = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true},
}

// Analyzer is the snapshot-immutability check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshot",
	Doc:  "results of snapshot accessors (Members, Metadata, RapidStats, ViewChange fields) must not be mutated; clone before writing",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, fd.Doc != nil && strings.Contains(fd.Doc.Text(), OwnerMarker))
		}
	}
	return nil
}

// checkFunc checks one function; ownsTables says that it may write the
// copy-on-write tables.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, ownsTables bool) {
	// Pass 1: locals assigned (directly) from a read-only source.
	readOnlyVars := make(map[types.Object]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) && len(as.Rhs) != 1 {
			return true
		}
		for i, lhs := range as.Lhs {
			// Every result of a multi-valued accessor is read-only.
			src, ok := sourceOf(pass, as.Rhs[min(i, len(as.Rhs)-1)], readOnlyVars, ownsTables)
			if !ok {
				continue
			}
			if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name != "_" {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					readOnlyVars[obj] = src
				}
			}
		}
		return true
	})

	report := func(pos ast.Node, verb, src string) {
		for _, ts := range SharedTables {
			if strings.HasPrefix(src, ts.TypeName+".") {
				pass.Reportf(pos.Pos(),
					"%s %s, a copy-on-write table other holders may alias: write it only in a function that runs after the copy and carries %q in its doc comment (or annotate //lint:allow snapshot <reason>)",
					verb, src, OwnerMarker)
				return
			}
		}
		pass.Reportf(pos.Pos(),
			"%s %s, which is a shared membership snapshot: clone it first with append([]T(nil), s...) (or annotate //lint:allow snapshot <reason>)",
			verb, src)
	}

	// Pass 2: mutations.
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if src, ro := sourceOf(pass, idx.X, readOnlyVars, ownsTables); ro {
						report(lhs, "assigns into", src)
					}
				} else if src, ok := tableField(pass, lhs, ownsTables); ok && v.Tok != token.DEFINE {
					report(lhs, "assigns", src)
				}
			}
		case *ast.UnaryExpr:
			if idx, ok := v.X.(*ast.IndexExpr); ok && v.Op == token.AND {
				if src, ok := tableField(pass, idx.X, ownsTables); ok {
					report(v, "takes the address of an element of", src)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := v.X.(*ast.IndexExpr); ok {
				if src, ro := sourceOf(pass, idx.X, readOnlyVars, ownsTables); ro {
					report(v, "mutates an element of", src)
				}
			}
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "delete" && len(v.Args) == 2 && isBuiltin(pass, fun) {
					if src, ro := sourceOf(pass, v.Args[0], readOnlyVars, ownsTables); ro {
						report(v, "deletes from", src)
					}
				}
				if fun.Name == "copy" && len(v.Args) == 2 && isBuiltin(pass, fun) {
					if src, ro := sourceOf(pass, v.Args[0], readOnlyVars, ownsTables); ro {
						report(v, "copies into", src)
					}
				}
				if fun.Name == "append" && len(v.Args) > 0 && isBuiltin(pass, fun) {
					if src, ro := sourceOf(pass, v.Args[0], readOnlyVars, ownsTables); ro {
						report(v, "appends to", src)
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := fun.X.(*ast.Ident); ok && len(v.Args) > 0 {
					if obj, isPkg := pass.TypesInfo.Uses[pkg].(*types.PkgName); isPkg && sorters[obj.Imported().Path()][fun.Sel.Name] {
						if src, ro := sourceOf(pass, v.Args[0], readOnlyVars, ownsTables); ro {
							report(v, "sorts in place", src)
						}
					}
				}
			}
		}
		return true
	})
}

// sourceOf reports whether expr's value comes from a read-only source and
// names the source for the diagnostic.
func sourceOf(pass *analysis.Pass, expr ast.Expr, readOnlyVars map[types.Object]string, ownsTables bool) (string, bool) {
	for {
		if p, ok := expr.(*ast.ParenExpr); ok {
			expr = p.X
			continue
		}
		break
	}
	switch v := expr.(type) {
	case *ast.SliceExpr:
		// A slice of shared memory is the same memory.
		return sourceOf(pass, v.X, readOnlyVars, ownsTables)
	case *ast.IndexExpr:
		// So is an element that is itself a slice or a map.
		switch pass.TypesInfo.TypeOf(v).Underlying().(type) {
		case *types.Slice, *types.Map:
			return sourceOf(pass, v.X, readOnlyVars, ownsTables)
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(v); obj != nil {
			if src, ok := readOnlyVars[obj]; ok {
				return src, true
			}
		}
	case *ast.CallExpr:
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil {
			return "", false
		}
		fn, ok := selection.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", false
		}
		recv := recvTypeName(fn)
		for _, m := range ReadOnlyMethods {
			if fn.Pkg().Path() == m.PkgPath && recv == m.TypeName && fn.Name() == m.Method {
				return m.TypeName + "." + m.Method + "()", true
			}
		}
	case *ast.SelectorExpr:
		field, owner, ok := selectedField(pass, v)
		if !ok {
			return "", false
		}
		for _, fs := range ReadOnlyFields {
			if field.Pkg().Path() == fs.PkgPath && owner == fs.TypeName && field.Name() == fs.Field {
				return fs.TypeName + "." + fs.Field, true
			}
		}
		return tableField(pass, v, ownsTables)
	}
	return "", false
}

// selectedField resolves a selector to the struct field it names and the name
// of the struct type that declares it.
func selectedField(pass *analysis.Pass, sel *ast.SelectorExpr) (field *types.Var, owner string, ok bool) {
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil {
		return nil, "", false
	}
	field, ok = selection.Obj().(*types.Var)
	if !ok || !field.IsField() || field.Pkg() == nil {
		return nil, "", false
	}
	return field, fieldOwnerName(selection), true
}

// tableField reports whether expr selects a field of a copy-on-write table
// that the enclosing function may not write.
func tableField(pass *analysis.Pass, expr ast.Expr, ownsTables bool) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || ownsTables {
		return "", false
	}
	field, owner, ok := selectedField(pass, sel)
	if !ok {
		return "", false
	}
	for _, ts := range SharedTables {
		if field.Pkg().Path() == ts.PkgPath && owner == ts.TypeName {
			return ts.TypeName + "." + field.Name(), true
		}
	}
	return "", false
}

func recvTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func fieldOwnerName(selection *types.Selection) string {
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
