// Package simclockcheck enforces the repo's determinism invariant: protocol
// code never reads the wall clock or arms real timers directly. Every
// duration must flow through simclock.Clock, which is what lets simnet runs
// replay deterministically from a seed (PR 3's
// TestDeterministicTraceAcrossShards) and lets unit tests drive timeouts with
// a manual clock instead of sleeping.
//
// The check forbids the time functions that observe or schedule real time
// (time.Now, Sleep, Since, Until, After, AfterFunc, Tick, NewTimer,
// NewTicker) in the protocol packages, and the context constructors that arm
// the same wall-clock timer behind the caller's back (context.WithTimeout,
// WithDeadline and their Cause variants; simclock.WithTimeout replaces them).
// Pure data uses of package time (time.Duration, time.Millisecond, time.Time
// values) and the rest of package context stay legal. Wall-clock sites that
// are legitimately real-time — the tcpnet transport, harness measurement, cmd
// binaries — either live outside the protocol set or carry an explicit
// //lint:allow simclock <reason>.
package simclockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// forbidden lists, per package, the functions that observe or schedule real
// time. Everything else in package time is timeless data manipulation;
// everything else in package context arms nothing.
var forbidden = map[string]map[string]bool{
	"time": {
		"Now": true, "Sleep": true, "Since": true, "Until": true, "After": true,
		"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	},
	"context": {
		"WithTimeout": true, "WithDeadline": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
	},
}

// instead names, per package, what protocol code uses in its place.
var instead = map[string]string{"time": "simclock.Clock", "context": "simclock.WithTimeout"}

// protocolLeaves are the final import-path segments of the packages whose
// code must be deterministic under simnet. A package also qualifies when any
// path segment is "apps" (the §7 workload models). The names — not full
// paths — are matched so that analysistest fixtures named after a protocol
// package exercise the real configuration; the programs under "examples" run
// on the wall clock whatever they are named after.
var protocolLeaves = map[string]bool{
	"core":        true,
	"cutdetect":   true,
	"fastpaxos":   true,
	"edgefd":      true,
	"gossipfd":    true,
	"broadcast":   true,
	"centralized": true,
	"simnet":      true,
	"experiments": true,
}

// Analyzer is the simclock-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc:  "forbid wall-clock time functions in protocol packages; all time must flow through simclock.Clock",
	Run:  run,
}

// IsProtocolPackage reports whether the import path belongs to the
// deterministic protocol set.
func IsProtocolPackage(path string) bool {
	segments := strings.Split(path, "/")
	for _, s := range segments {
		switch s {
		case "apps":
			return true
		case "examples":
			return false
		}
	}
	return protocolLeaves[segments[len(segments)-1]]
}

func run(pass *analysis.Pass) error {
	if !IsProtocolPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Map the local name of each watched import in this file; it is almost
		// always the package's own name but aliasing must not defeat the check.
		watched := make(map[string]string) // local name -> package
		for _, imp := range f.Imports {
			pkg := strings.Trim(imp.Path.Value, `"`)
			if forbidden[pkg] == nil {
				continue
			}
			local := pkg
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local != "_" {
				watched[local] = pkg
			}
		}
		if len(watched) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg := watched[ident.Name]
			if !forbidden[pkg][sel.Sel.Name] {
				return true
			}
			// The identifier must resolve to the package, not a local variable
			// shadowing it.
			if obj := pass.TypesInfo.Uses[ident]; obj != nil {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			pass.Reportf(sel.Pos(),
				"%s.%s in protocol package %s: use %s so simnet runs stay deterministic (or annotate //lint:allow simclock <reason>)",
				pkg, sel.Sel.Name, pass.Pkg.Path(), instead[pkg])
			return true
		})
	}
	return nil
}
