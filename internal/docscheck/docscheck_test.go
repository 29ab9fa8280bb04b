// Package docscheck keeps the documentation honest: it fails when README.md
// or anything under docs/ references a command-line flag that the cmd/
// binaries no longer define, or a qualified Go identifier that the module no
// longer declares (identifiers_test.go). The flag sets are recovered from the
// AST of each cmd/<name>/main.go (calls to flag.String, flag.Int, ...) and the
// declarations from the module's source, so the checks need no build tags,
// no binary execution, and stay correct as flags and names move.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the module root relative to this package directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(wd, "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// flagRegistrations are the flag package constructors whose first argument
// names a flag.
var flagRegistrations = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "Bool": true, "Duration": true,
	"StringVar": true, "IntVar": true, "Int64Var": true, "UintVar": true,
	"Uint64Var": true, "Float64Var": true, "BoolVar": true, "DurationVar": true,
}

// cmdFlags parses cmd/<name>/main.go and returns the set of flag names it
// registers, plus the flag package's built-in help aliases.
func cmdFlags(t *testing.T, root, name string) map[string]bool {
	t.Helper()
	src := filepath.Join(root, "cmd", name, "main.go")
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	flags := map[string]bool{"h": true, "help": true}
	nameArgIndex := func(fn string) int {
		if strings.HasSuffix(fn, "Var") {
			return 1 // flag.XxxVar(&v, "name", ...)
		}
		return 0 // flag.Xxx("name", ...)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagRegistrations[sel.Sel.Name] {
			return true
		}
		if ident, ok := sel.X.(*ast.Ident); !ok || ident.Name != "flag" {
			return true
		}
		idx := nameArgIndex(sel.Sel.Name)
		if len(call.Args) <= idx {
			return true
		}
		if lit, ok := call.Args[idx].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			flags[strings.Trim(lit.Value, `"`)] = true
		}
		return true
	})
	if len(flags) <= 2 {
		t.Fatalf("no flags recovered from %s: parser out of date?", src)
	}
	return flags
}

// flagToken matches "-flag" or "--flag" at a word start, including
// hyphenated names like -probe-interval (each hyphen must be followed by an
// alphanumeric, so a trailing dash stays out of the capture); hyphens inside
// ordinary words (rapid-bench, single-machine) do not start a match.
var flagToken = regexp.MustCompile(`(?:^|[\s` + "`" + `"'(])--?([a-zA-Z][a-zA-Z0-9]*(?:-[a-zA-Z0-9]+)*)\b`)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T, root string) []string {
	t.Helper()
	files := []string{filepath.Join(root, "README.md")}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		if os.IsNotExist(err) {
			return files
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join(root, "docs", e.Name()))
		}
	}
	return files
}

// TestDocsReferenceOnlyExistingFlags scans every documentation line that
// mentions a cmd/ binary and asserts each flag token on that line is still
// registered by that binary. A stale "-exp fig14" or a renamed "-joinconc"
// fails here instead of misleading a reader.
func TestDocsReferenceOnlyExistingFlags(t *testing.T) {
	root := repoRoot(t)
	binaries := map[string]map[string]bool{}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsDir() {
			binaries[c.Name()] = cmdFlags(t, root, c.Name())
		}
	}
	if len(binaries) == 0 {
		t.Fatal("no cmd/ binaries found")
	}

	checkedLines := 0
	for _, path := range docFiles(t, root) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		for lineNo, line := range strings.Split(string(data), "\n") {
			// Union of flags of every binary this line mentions.
			var allowed map[string]bool
			for name, flags := range binaries {
				if strings.Contains(line, name) {
					if allowed == nil {
						allowed = map[string]bool{}
					}
					for f := range flags {
						allowed[f] = true
					}
				}
			}
			if allowed == nil {
				continue
			}
			// Flags of the go tool itself also appear on lines naming a cmd
			// binary: `go build -o bin/rapid-vet` and
			// `go vet -vettool=bin/rapid-vet` pass the binary as the go
			// tool's argument.
			allowed["o"] = true
			allowed["vettool"] = true
			checkedLines++
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				if !allowed[m[1]] {
					t.Errorf("%s:%d references flag -%s, which no cmd binary on that line defines: %q",
						rel, lineNo+1, m[1], strings.TrimSpace(line))
				}
			}
		}
	}
	if checkedLines == 0 {
		t.Fatal("no documentation lines mention any cmd binary; check the scanner")
	}
}
