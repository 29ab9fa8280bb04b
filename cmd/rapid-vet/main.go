// Command rapid-vet is the repo's custom vet tool: it enforces the engine's
// determinism and sharing invariants (simclock discipline, snapshot
// immutability) as build-breaking lints. See docs/ARCHITECTURE.md,
// "Enforced invariants".
//
// It speaks cmd/go's vettool protocol — the same contract
// golang.org/x/tools/go/analysis/unitchecker implements, rebuilt here on the
// standard library because the repo carries no external dependencies:
//
//	go build -o bin/rapid-vet ./cmd/rapid-vet
//	go vet -vettool=$PWD/bin/rapid-vet ./...
//
// Per package, cmd/go invokes the tool with a JSON config file describing
// the compilation unit (file list, import map, export-data locations). The
// tool typechecks the unit against the gc export data cmd/go already built,
// runs the analyzer suite, prints file:line:col diagnostics to stderr, and
// writes the (empty — the suite is factless) .vetx facts file cmd/go
// expects. Identification queries:
//
//	rapid-vet -V=full   print a content-hashed version (cmd/go's cache key)
//	rapid-vet -flags    print supported analyzer flags as JSON (none)
//	rapid-vet help      describe the analyzers
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// vetConfig mirrors the JSON cmd/go writes to <objdir>/vet.cfg. Field names
// are the protocol; unknown fields are ignored.
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string
	ImportMap  map[string]string
	// PackageFile maps canonical package paths to their export-data files.
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

func main() {
	versionFlag := flag.String("V", "", "print version (cmd/go tool identification)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON (cmd/go flag discovery)")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		// The suite takes no flags; cmd/go just needs a valid JSON list.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "help" {
		usage()
		return
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		usage()
		os.Exit(1)
	}

	diags, err := runUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapid-vet: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		if *jsonFlag {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "\t")
			_ = enc.Encode(diags)
		} else {
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			}
		}
		// Exit 2 distinguishes "diagnostics reported" from operational errors,
		// matching unitchecker.
		os.Exit(2)
	}
}

func runUnit(cfgPath string) ([]analysis.Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// The facts file must exist for cmd/go to cache the action, even though
	// this suite is factless. Dependencies analyzed for facts only (VetxOnly)
	// need nothing else, which keeps the dependency sweep essentially free.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tcfg := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect via the returned error only
	}
	if cfg.GoVersion != "" {
		tcfg.GoVersion = cfg.GoVersion
	}
	info := analysis.NewTypesInfo()
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	unit := analysis.NewUnit(fset, files, pkg, info)
	return unit.Run(suite.All())
}

// printVersion emits the tool identification line cmd/go hashes into its
// action cache key. Hashing the binary's own contents means rebuilding the
// tool with changed analyzers invalidates cached vet results, so a stale
// rapid-vet can never report a stale "ok".
func printVersion() {
	name := "rapid-vet"
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, h.Sum(nil))
}

func usage() {
	fmt.Fprintf(os.Stderr, "rapid-vet enforces this repo's concurrency & determinism invariants.\n\n")
	fmt.Fprintf(os.Stderr, "usage:\n  go vet -vettool=$(pwd)/bin/rapid-vet ./...\n\nanalyzers:\n")
	for _, a := range suite.All() {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress one finding with `//lint:allow <analyzer> <reason>` on the same\nline or alone on the line above; the reason is mandatory.\n")
}
