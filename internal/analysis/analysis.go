// Package analysis is a self-contained static-analysis framework plus the
// letvet analyzer suite that enforces this repository's determinism and
// numeric-discipline invariants (DESIGN.md §7 and the "Determinism & static
// analysis" section).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built only on the standard library
// (go/parser, go/types, go/importer), because this repository builds
// hermetically with no third-party modules. Packages under analysis are
// enumerated with `go list -json`, parsed, and type-checked in dependency
// order; standard-library imports are type-checked from source via
// go/importer's "source" compiler.
//
// The suite (see Suite) contains eight analyzers:
//
//   - detrange: flags `range` over a map with order-dependent loop effects
//     in solver/model-building and validation packages, where iteration
//     order would leak into emitted MILP variables, constraints, schedules
//     or violation reports. Waivable per
//     statement with a `//letvet:ordered` comment.
//   - ticktime: flags float literals and time.Duration values converted to
//     timeutil.Time — model time is exact integer nanoseconds; quantizing a
//     float literal or mixing wall-clock durations in silently reintroduces
//     rounding.
//   - floateq: flags ==/!= between floating-point operands outside the
//     designated exact-comparison helpers and constant-sentinel compares.
//   - globalrand: flags the auto-seeded global math/rand functions in
//     non-test code; generators must take an injected *rand.Rand.
//   - errdrop: flags call statements that discard an error result in the
//     cmd/, examples/, and experiments layers.
//   - nondetflow: interprocedural taint — values born from wall-clock
//     reads, the global rand source, environment reads, or first-match map
//     iteration must not reach solver API returns, exported result-struct
//     fields, or emitted text (see taint.go, callgraph.go).
//   - sharedwrite: unguarded writes to closure-captured variables inside
//     goroutine-run closures, including closures handed to worker pools
//     through func-typed parameters (see freevars.go).
//   - stalewaiver: a `//letvet:` waiver that no longer suppresses any
//     diagnostic, or carries an unknown tag, is itself a finding.
//
// The last three are built on a small dataflow layer: a package-level call
// graph with fixpoint per-function summaries (callgraph.go), a
// flow-insensitive intraprocedural taint pass (taint.go), and a
// free-variable classifier for closures (freevars.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. The zero Scope means "every
// package"; otherwise Scope reports whether a package import path is
// checked by default (analysistest and explicit fixture runs ignore it).
type Analyzer struct {
	Name string
	Doc  string
	// Scope restricts the default package set the driver applies the
	// analyzer to. Nil means all packages.
	Scope func(pkgPath string) bool
	Run   func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	// facts is shared by every pass over the same package in one
	// RunAnalyzers call: the waiver index and its usage marks (waiver.go).
	facts *pkgFacts
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers whose
// contract is explicitly about non-test code (globalrand, errdrop) use it
// when the loader runs with Options.Tests.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the pass in source order, calling f on each
// node; f returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// RunAnalyzers applies each analyzer to each loaded package it is scoped
// for and returns the findings sorted by position. The analyzers run in
// slice order over each package and share a per-package waiver index;
// stalewaiver must therefore come last in the slice (as it does in Suite)
// so that every waiver has had its chance to fire.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, ignoreScope bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		facts := newPkgFacts(pkg)
		for _, a := range analyzers {
			if !ignoreScope && a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
