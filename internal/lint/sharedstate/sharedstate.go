// Package sharedstate implements the mnlint analyzer that guards the
// ownership discipline of internal/sim and internal/core.
//
// The run pool (internal/pool) runs whole simulations — figure-grid
// runs, campaign units and the ports of a machine run — on concurrent
// worker goroutines; correctness rests on every piece of mutable state
// being owned by exactly one simulation instance. Two static patterns
// break that discipline:
//
//   - writes to package-level variables: global mutable state is
//     reachable from every concurrent run at once, so any runtime write
//     is a data race waiting for a second worker (writes from init
//     functions are allowed — they happen before any goroutine starts);
//
//   - non-channel cross-goroutine access: a goroutine body (a function
//     literal under a `go` statement, including nested literals) that
//     assigns to variables captured from the enclosing function shares
//     memory instead of communicating. Channel sends/receives are the
//     sanctioned hand-off and are not flagged.
//
// Deliberately synchronized state — a mutex-guarded queue, a
// barrier-ordered slice slot — carries a //lint:sharded annotation
// naming the discipline that makes it safe.
package sharedstate

import (
	"go/ast"
	"go/types"
	"strings"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/lintutil"
)

// Analyzer is the sharedstate analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "flag unguarded package-level writes and non-channel cross-goroutine " +
		"access in internal/sim and internal/core (annotate //lint:sharded <reason>)",
	Run: run,
}

// shardPackage reports whether the import path names one of the
// packages pool workers run concurrently: memnet/internal/sim or
// memnet/internal/core (or subpackages).
func shardPackage(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) && (segs[i+1] == "sim" || segs[i+1] == "core") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !shardPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := lintutil.NewDirectives(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		checkGlobalWrites(pass, dirs, f)
		checkGoroutineCaptures(pass, dirs, f)
	}
	return nil, nil
}

// checkGlobalWrites flags every runtime write to a package-level
// variable. Writes inside init functions run before any worker goroutine
// exists and are exempt.
func checkGlobalWrites(pass *analysis.Pass, dirs *lintutil.Directives, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Recv == nil && fd.Name.Name == "init" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					reportIfGlobal(pass, dirs, lhs)
				}
			case *ast.IncDecStmt:
				reportIfGlobal(pass, dirs, st.X)
			}
			return true
		})
	}
}

// reportIfGlobal reports lhs when its base identifier denotes a
// package-level variable (of any package) and no //lint:sharded
// directive covers the write.
func reportIfGlobal(pass *analysis.Pass, dirs *lintutil.Directives, lhs ast.Expr) {
	id := baseIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	v, ok := lintutil.ObjectOf(pass.TypesInfo, id).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if dirs.Allows(lhs.Pos(), "sharded") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to package-level variable %s: global mutable state is shared across shard goroutines; make it per-instance or annotate //lint:sharded <reason>",
		id.Name)
}

// checkGoroutineCaptures flags assignments inside `go func(){...}`
// bodies (nested literals included) whose target is captured from the
// enclosing function instead of being local to the goroutine.
func checkGoroutineCaptures(pass *analysis.Pass, dirs *lintutil.Directives, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch st := m.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					reportIfCaptured(pass, dirs, lit, lhs)
				}
			case *ast.IncDecStmt:
				reportIfCaptured(pass, dirs, lit, st.X)
			}
			return true
		})
		return true
	})
}

// reportIfCaptured reports lhs when its base identifier denotes a
// function-scoped variable declared outside the goroutine's function
// literal — shared memory mutated across goroutines without a channel.
func reportIfCaptured(pass *analysis.Pass, dirs *lintutil.Directives, lit *ast.FuncLit, lhs ast.Expr) {
	id := baseIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	v, ok := lintutil.ObjectOf(pass.TypesInfo, id).(*types.Var)
	if !ok || v.Pkg() == nil {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		return // package-level: checkGlobalWrites owns that diagnostic
	}
	// Declared inside the goroutine literal (parameters included) means
	// goroutine-local; declared before it means captured.
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return
	}
	if dirs.Allows(lhs.Pos(), "sharded") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"goroutine writes captured variable %s: cross-goroutine state must move over a channel (or annotate //lint:sharded <reason>)",
		id.Name)
}

// baseIdent unwraps selectors, indexes, stars, and parens to the base
// identifier being written through, or nil when the target has no
// identifier base (e.g. a call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
