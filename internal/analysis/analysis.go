// Package analysis is a dependency-free reimplementation of the narrow slice
// of golang.org/x/tools/go/analysis that rapid-vet needs. The repo
// deliberately has no external module dependencies, so the framework —
// analyzers over typed ASTs, an allowlist directive, a unitchecker-style
// driver for `go vet -vettool` (cmd/rapid-vet) and an analysistest-style
// fixture runner (subpackage analysistest) — is built on go/ast, go/types and
// go/importer alone. Analyzers are written against the same Analyzer/Pass
// shape as x/tools, so they port verbatim if the dependency ever lands.
//
// The analyzers themselves live in subpackages (simclockcheck,
// snapshotcheck); package suite lists them for the vettool and the self-vet
// test. docs/ARCHITECTURE.md ("Enforced invariants") documents what each one
// checks and why the invariant is load-bearing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is the check name an
	// allowlist directive must reference: //lint:allow <Name> <reason>.
	Name string
	// Doc is the one-paragraph description shown by `rapid-vet help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one typed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files. Test files are excluded
	// from analysis on purpose: tests legitimately poll the wall clock while
	// waiting on real goroutines, and intentionally violate engine ownership
	// to probe it — the race detector, not rapid-vet, checks them.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	unit *Unit
}

// Reportf records a diagnostic at pos unless an allowlist directive on the
// same line (or alone on the line above) suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.unit.allowed(p.Analyzer.Name, position) {
		return
	}
	p.unit.diags = append(p.unit.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	check string
	// line is the source line the directive suppresses: the directive's own
	// line when it shares it with code, the following line when the directive
	// stands alone.
	file string
	line int
}

// Unit is one package ready for analysis: parsed, typechecked, with allowlist
// directives indexed. Both drivers (the vettool and analysistest) build a
// Unit and call Run on it.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	allows []allowDirective
	diags  []Diagnostic
}

// NewUnit indexes the allowlist directives and reports malformed ones
// (a directive without a reason is itself a diagnostic: the reason is the
// reviewable artifact that justifies the escape hatch).
func NewUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Unit {
	u := &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					u.diags = append(u.diags, Diagnostic{Pos: pos, Analyzer: "lintdirective",
						Message: "malformed //lint:allow: want //lint:allow <check> <reason>"})
					continue
				}
				if len(fields) < 2 {
					u.diags = append(u.diags, Diagnostic{Pos: pos, Analyzer: "lintdirective",
						Message: fmt.Sprintf("//lint:allow %s needs a reason: //lint:allow %s <why this site is exempt>", fields[0], fields[0])})
					continue
				}
				line := pos.Line
				if standsAlone(fset, f, c) {
					line++
				}
				u.allows = append(u.allows, allowDirective{check: fields[0], file: pos.Filename, line: line})
			}
		}
	}
	return u
}

// standsAlone reports whether comment c is the only thing on its line.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cLine := fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		// Any non-comment node starting or ending on the comment's line means
		// the directive annotates that code inline.
		if _, isComment := n.(*ast.Comment); isComment {
			return true
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return true
		}
		if _, isFile := n.(*ast.File); isFile {
			return true
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if start <= cLine && cLine <= end && (start == cLine || end == cLine) {
			alone = false
			return false
		}
		return true
	})
	return alone
}

func (u *Unit) allowed(check string, pos token.Position) bool {
	for _, a := range u.allows {
		if a.check == check && a.file == pos.Filename && a.line == pos.Line {
			return true
		}
	}
	return false
}

// Run applies the analyzers to the unit and returns every diagnostic sorted
// by position. Test files (*_test.go) are excluded from the analyzed file
// set; see Pass.Files.
func (u *Unit) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, f := range u.Files {
		name := u.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	if len(files) > 0 {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
				unit:      u,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	diags := u.diags
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// NewTypesInfo returns a types.Info with every map analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
