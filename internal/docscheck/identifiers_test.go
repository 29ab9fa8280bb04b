package docscheck

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// typeDecl is what a qualified name may select from a declared type: its
// fields and methods, and the types it embeds or is declared from, whose
// members it may promote.
type typeDecl struct {
	members  map[string]bool
	embedded []typeRef
}

// typeRef names a type by package and name.
type typeRef struct{ pkg, name string }

// moduleDecls is every declaration of the module's packages, by package name.
type moduleDecls struct {
	pkgs  map[string]map[string]bool // package → top-level names
	types map[typeRef]*typeDecl
}

// typeOf returns the type's record, made empty on first use: a method may be
// parsed before its type.
func (d *moduleDecls) typeOf(ref typeRef) *typeDecl {
	td := d.types[ref]
	if td == nil {
		td = &typeDecl{members: map[string]bool{}}
		d.types[ref] = td
	}
	return td
}

// hasMember reports whether the type, or a type it embeds, has a field or
// method of that name.
func (d *moduleDecls) hasMember(ref typeRef, member string, seen map[typeRef]bool) bool {
	td, ok := d.types[ref]
	if !ok || seen[ref] {
		return false
	}
	seen[ref] = true
	if td.members[member] {
		return true
	}
	for _, e := range td.embedded {
		if d.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// pkgHasMember reports whether some type of the package has a field or
// method of that name.
func (d *moduleDecls) pkgHasMember(pkg, member string) bool {
	for ref, td := range d.types {
		if ref.pkg == pkg && td.members[member] {
			return true
		}
	}
	return false
}

// anyTypeHasMember reports whether the module declares a type called name,
// and whether one of its types of that name has the member.
func (d *moduleDecls) anyTypeHasMember(name, member string) (isType, found bool) {
	for ref := range d.types {
		if ref.name == name && d.pkgs[ref.pkg][name] {
			isType = true
			if d.hasMember(ref, member, map[typeRef]bool{}) {
				return true, true
			}
		}
	}
	return isType, false
}

// refOf names the type a receiver, embedded field or type declaration
// refers to, in package pkg unless the expression qualifies it.
func refOf(pkg string, expr ast.Expr) (typeRef, bool) {
	switch x := expr.(type) {
	case *ast.Ident:
		return typeRef{pkg, x.Name}, true
	case *ast.StarExpr:
		return refOf(pkg, x.X)
	case *ast.IndexExpr:
		return refOf(pkg, x.X)
	case *ast.IndexListExpr:
		return refOf(pkg, x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return typeRef{id.Name, x.Sel.Name}, true
		}
	}
	return typeRef{}, false
}

// parseModule parses every Go file of the module, tests included, except
// the bench/ module's and testdata's.
func parseModule(t *testing.T, root string) *moduleDecls {
	t.Helper()
	d := &moduleDecls{pkgs: map[string]map[string]bool{}, types: map[typeRef]*typeDecl{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "bench" || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := file.Name.Name
		if pkg == "main" {
			return nil
		}
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.pkgs[pkg][decl.Name.Name] = true
				} else if ref, ok := refOf(pkg, decl.Recv.List[0].Type); ok {
					d.typeOf(ref).members[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							d.pkgs[pkg][name.Name] = true
						}
					case *ast.TypeSpec:
						d.pkgs[pkg][spec.Name.Name] = true
						d.addType(d.typeOf(typeRef{pkg, spec.Name.Name}), pkg, spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.pkgs) < 5 {
		t.Fatalf("only %d packages parsed under %s: walker out of date?", len(d.pkgs), root)
	}
	return d
}

// addType records the fields, interface methods and embedded or underlying
// types of a type declaration's type expression.
func (d *moduleDecls) addType(td *typeDecl, pkg string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		if ref, ok := refOf(pkg, x); ok {
			td.embedded = append(td.embedded, ref)
		}
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if ref, ok := refOf(pkg, f.Type); ok {
				td.members[ref.name] = true
				td.embedded = append(td.embedded, ref)
			}
			continue
		}
		for _, name := range f.Names {
			td.members[name.Name] = true
		}
	}
}

// qualifiedName matches a backticked span that is a qualified Go name — two
// or three dot-separated identifiers — optionally called: `view.NewShared`,
// `rapid.Settings.K`, `Settings.windowFloor()`.
var qualifiedName = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)

// backticked matches one inline code span.
var backticked = regexp.MustCompile("`([^`\n]+)`")

// fileExtensions are the last parts of a span that names a file, not a
// declaration: `rapid.go`, `ROADMAP.md`.
var fileExtensions = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "yml": true, "mod": true, "txt": true}

// benchmarkMetrics are the metric names BENCHMARK.json declares, which docs
// quote in the same `layer.name` form: `core.join_p50_s`.
func benchmarkMetrics(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		names[m.Name] = true
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	return names
}

// TestDocsReferenceOnlyExistingIdentifiers checks every backticked qualified
// name in README.md and docs/*.md whose first part is a package or a type of
// this module — `pkg.Name`, `pkg.Type.Member`, `Type.Member` — against the
// module's declarations, recovered from its source with go/parser: each must
// name a declaration, or a method or field of a declared type (promoted ones
// included; `pkg.Name` may name a method or field of one of pkg's types). A renamed or deleted identifier fails here instead of sending a
// reader to look for it. Metric names that BENCHMARK.json declares and file
// names pass.
func TestDocsReferenceOnlyExistingIdentifiers(t *testing.T) {
	root := repoRoot(t)
	d := parseModule(t, root)
	metrics := benchmarkMetrics(t, root)
	checked := 0
	for _, path := range docFiles(t, root) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, span := range backticked.FindAllStringSubmatch(line, -1) {
				m := qualifiedName.FindStringSubmatch(strings.TrimSpace(span[1]))
				if m == nil || metrics[m[0]] {
					continue
				}
				last := m[3]
				if last == "" {
					last = m[2]
				}
				if fileExtensions[last] {
					continue
				}
				if ok, known := d.resolves(m[1], m[2], m[3]); known {
					checked++
					if !ok {
						t.Errorf("%s:%d: `%s` names no declaration, method or field of this module", rel, lineNo+1, span[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no qualified identifier found in the docs; check the scanner")
	}
}

// resolves reports whether first.second(.third) names a declaration, and
// whether first is a package or type of this module at all (known).
func (d *moduleDecls) resolves(first, second, third string) (ok, known bool) {
	if names, isPkg := d.pkgs[first]; isPkg {
		if third == "" {
			// `cutdetect.InvalidateFailingEdges` names a method by its package.
			return names[second] || d.pkgHasMember(first, second), true
		}
		if !names[second] {
			return false, true
		}
		ref := typeRef{first, second}
		if _, isType := d.types[ref]; !isType {
			return true, true // a variable or function: its members are not checked
		}
		return d.hasMember(ref, third, map[typeRef]bool{}), true
	}
	if third != "" {
		return false, false
	}
	isType, found := d.anyTypeHasMember(first, second)
	return found, isType
}
