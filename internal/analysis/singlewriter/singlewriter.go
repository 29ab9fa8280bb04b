// Package singlewriter enforces the engine's ownership invariant from PR 2:
// all protocol state is mutated only by the single-writer engine goroutine.
// Struct fields whose comment carries the marker "engine-owned" may only be
// read or written from functions reachable — through same-package static
// calls — from a function whose doc comment carries "engine-entry" (the
// driver loop that steps the engine, plus constructors that run before the
// driver goroutine starts and therefore happen-before it).
//
// Function literals declared inside a reachable function inherit its
// reachability (deferred closures, sort comparators and locally-called
// helpers run on the same goroutine) EXCEPT literals launched directly with a
// `go` statement: those are new goroutines, and an engine-owned access inside
// them is exactly the race this analyzer exists to catch. Handlers and public
// accessors that need protocol state must go through the event queue or the
// atomically published snapshot; a deliberate exception carries
// //lint:allow singlewriter <reason>.
package singlewriter

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// FieldMarker tags a struct field as owned by the engine goroutine.
const FieldMarker = "engine-owned"

// EntryMarker tags a function as a root of the engine goroutine's call graph
// (the loop itself or pre-loop construction).
const EntryMarker = "engine-entry"

// Analyzer is the single-writer-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "singlewriter",
	Doc:  "engine-owned struct fields may only be accessed from functions reachable from an engine-entry root",
	Run:  run,
}

// funcNode is one node of the intra-package call graph: a declared function
// or a function literal.
type funcNode struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	// callees are same-package functions this node calls directly.
	callees []*funcNode
	// children are literals declared in this node's body that inherit its
	// reachability (everything except go-launched literals).
	children  []*funcNode
	reachable bool
}

func (n *funcNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	return n.lit.Body
}

func run(pass *analysis.Pass) error {
	owned := collectOwnedFields(pass)
	if len(owned) == 0 {
		return nil
	}

	// Build the call graph: declared functions first (so calls can resolve to
	// them), then wire up literals.
	byObj := make(map[types.Object]*funcNode)
	var nodes []*funcNode
	var roots []*funcNode
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &funcNode{decl: fd}
			nodes = append(nodes, n)
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				byObj[obj] = n
			}
			if hasMarker(fd.Doc, EntryMarker) {
				roots = append(roots, n)
			}
		}
	}
	for _, n := range nodes {
		nodes = append(nodes, wireBody(pass, n, byObj)...)
	}

	// Propagate reachability from the entry roots.
	var mark func(n *funcNode)
	mark = func(n *funcNode) {
		if n.reachable {
			return
		}
		n.reachable = true
		for _, c := range n.callees {
			mark(c)
		}
		for _, c := range n.children {
			mark(c)
		}
	}
	for _, r := range roots {
		mark(r)
	}

	// Report engine-owned accesses in unreachable nodes. Each node only scans
	// its own statements (literals are visited as their own nodes).
	for _, n := range nodes {
		if n.reachable {
			continue
		}
		where := "function literal"
		if n.decl != nil {
			where = funcTitle(n.decl)
		}
		inspectShallow(n.body(), func(node ast.Node) {
			name, ok := ownedAccess(pass, node, owned)
			if !ok {
				return
			}
			pass.Reportf(node.Pos(),
				"%s accesses engine-owned field %q but is not reachable from an %s root: route through the event queue or the published snapshot (or annotate //lint:allow singlewriter <reason>)",
				where, name, EntryMarker)
		})
	}
	return nil
}

// collectOwnedFields returns the *types.Var of every struct field whose
// comment (doc or trailing) contains the engine-owned marker.
func collectOwnedFields(pass *analysis.Pass) map[types.Object]string {
	owned := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasMarker(field.Doc, FieldMarker) && !hasMarker(field.Comment, FieldMarker) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						owned[obj] = name.Name
					}
				}
			}
			return true
		})
	}
	return owned
}

// wireBody resolves n's call/reference edges and nested literals, returning
// the literal nodes it created (recursively). Any reference to a
// same-package function — a call, or a function/method value handed to a
// callback slot — counts as an edge, because callbacks registered by engine
// code (the consensus VoteSink and OnDecide hooks) are invoked on the engine
// goroutine. The single exception is the target of a `go` statement: that is
// a new goroutine by definition, so neither a `go`-launched literal nor a
// `go m.method()` target inherits reachability.
func wireBody(pass *analysis.Pass, n *funcNode, byObj map[types.Object]*funcNode) []*funcNode {
	var created []*funcNode
	var walk func(node ast.Node, parent *funcNode)
	walk = func(node ast.Node, parent *funcNode) {
		switch v := node.(type) {
		case *ast.GoStmt:
			for _, arg := range v.Call.Args {
				walk(arg, parent)
			}
			switch fun := v.Call.Fun.(type) {
			case *ast.FuncLit:
				child := &funcNode{lit: fun}
				created = append(created, child)
				walk(fun.Body, child)
			case *ast.SelectorExpr:
				// The receiver is evaluated on the launching goroutine; only
				// the method itself runs on the new one.
				walk(fun.X, parent)
			}
			return
		case *ast.FuncLit:
			child := &funcNode{lit: v}
			parent.children = append(parent.children, child)
			created = append(created, child)
			walk(v.Body, child)
			return
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[v]; obj != nil {
				if callee := byObj[obj]; callee != nil {
					parent.callees = append(parent.callees, callee)
				}
			}
			return
		}
		if node != nil {
			for _, c := range childNodes(node) {
				walk(c, parent)
			}
		}
	}
	walk(n.body(), n)
	return created
}

// ownedAccess reports whether node is a use of an engine-owned field: a
// selector expression resolving to the field, or a composite-literal key for
// it.
func ownedAccess(pass *analysis.Pass, node ast.Node, owned map[types.Object]string) (string, bool) {
	switch v := node.(type) {
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[v]; sel != nil {
			if name, ok := owned[sel.Obj()]; ok {
				return name, true
			}
		}
	case *ast.KeyValueExpr:
		if key, ok := v.Key.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[key]; obj != nil {
				if name, ok := owned[obj]; ok {
					return name, true
				}
			}
		}
	}
	return "", false
}

// inspectShallow visits every node in body but does not descend into function
// literals (they are separate graph nodes).
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// childNodes returns the direct AST children of n.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

func funcTitle(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return "method " + fd.Name.Name
	}
	return "function " + fd.Name.Name
}
