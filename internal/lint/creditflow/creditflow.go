// Package creditflow implements the credit-conservation analyzer.
//
// The simulator's flow control is credit-based (link.Direction holds a
// per-VC credit counter against the remote input buffer), and its
// correctness rests on a conservation law: every consumed credit is
// eventually retired, and every delivered packet has exactly one owner.
// A leaked credit wedges a virtual channel permanently — the class of
// bug that surfaces hours into a campaign as a silent throughput
// collapse. creditflow turns the law into a compile-time check with two
// obligation kinds, both discharged by a must-reach dataflow analysis
// over the internal/lint/cfg control-flow graph:
//
//   - Credit obligations. A decrement (-- or -=) of a struct field
//     named "credits" opens an obligation; every path from it to the
//     function's exit must retire the credit: increment credits or
//     outstanding back, or call a credit sink (a function whose body —
//     directly or transitively — performs such an increment, e.g.
//     link.(*Direction).ReturnCredit or finishTransmit). Paths that end
//     in panic are exempt: the simulator treats flow-control violations
//     as fatal, so a panicking path retires nothing by design.
//
//   - Delivery obligations. A delivery closure — a func literal wired
//     via a SetDeliver call or returned by a method named Deliver —
//     takes ownership of its *Packet parameter; every path to return
//     must hand the packet to an owning sink: a call to a function
//     known to store it (link.(*Buffer).Push, packet Pool.Put, ...), a
//     call through a func-typed value (delegation), a store, a channel
//     send, or returning it.
//
// Ownership and sink summaries travel between packages as facts: the
// driver analyzes packages in dependency order, so by the time
// internal/core's wiring closures are checked, the facts computed over
// internal/link and internal/host are available. Calls into packages
// outside the analyzed set (the standard library, or siblings absent
// from a narrow `mnlint ./internal/core` run) are assumed to dispose of
// their arguments — the analyzer errs quiet, not noisy, when it cannot
// see the callee.
//
// //lint:creditsink suppresses: on a credit decrement or a delivery
// closure it waives that obligation; on a function declaration it marks
// the function as both a credit sink and an owning sink, for retirement
// mechanisms the analyzer cannot see.
package creditflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/cfg"
	"memnet/internal/lint/lintutil"
)

// Analyzer is the creditflow entry point.
var Analyzer = &analysis.Analyzer{
	Name: "creditflow",
	Doc:  "credit decrements and delivery closures must reach a credit/ownership sink on every path",
	Run:  run,
}

// Fact names. Values are struct{}{}; presence is the fact.
const (
	sinkFact     = "creditflow.sink"     // function retires a credit on some path
	ownsFact     = "creditflow.owns"     // function takes ownership of a packet-like arg
	analyzedFact = "creditflow.analyzed" // package-level: summaries were computed
)

// Dataflow lattice values. The join is min-over-visited, so "pending"
// poisons any merge it reaches: the analysis is a must-analysis.
const (
	unvisited  = 0 // block not yet reached (join identity)
	pending    = 1 // obligation open on this path
	discharged = 2 // obligation retired on this path
)

func run(pass *analysis.Pass) (any, error) {
	dirs := lintutil.NewDirectives(pass.Fset, pass.Files)
	fns := collectFuncs(pass, dirs)
	summarize(pass, fns)

	// Obligations are checked only in simulation packages; summaries are
	// computed everywhere (internal/packet is not simulation code, but
	// its Pool.Put fact is what proves host.Port.retire an owner).
	if !lintutil.SimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, fi := range fns {
		checkCredits(pass, dirs, fi)
	}
	for _, f := range pass.Files {
		for _, lit := range deliveryLits(pass, f) {
			checkDelivery(pass, dirs, fns, lit)
		}
	}
	return nil, nil
}

// funcInfo is one function declared in the package under analysis,
// with its in-progress summary bits.
type funcInfo struct {
	obj  *types.Func
	body *ast.BlockStmt
	sink bool
	owns bool
	// params holds the packet-like parameters (pointer-to-Packet or
	// empty interface) whose storage would make the function an owner.
	params []*types.Var
}

// collectFuncs gathers every declared function and method with a body,
// in source order, seeding summaries from //lint:creditsink directives
// on the declaration itself.
func collectFuncs(pass *analysis.Pass, dirs *lintutil.Directives) []*funcInfo {
	var out []*funcInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{obj: obj, body: fd.Body}
			sig := obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if packetLike(p.Type()) {
					fi.params = append(fi.params, p)
				}
			}
			if dirs.Allows(fd.Pos(), "creditsink") {
				fi.sink, fi.owns = true, true
			}
			out = append(out, fi)
		}
	}
	return out
}

// packetLike reports whether t can carry packet ownership across a
// call boundary: a pointer to a named type called Packet, or the empty
// interface (the event-argument channel sim.Engine.AtArg stores).
func packetLike(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name() == "Packet"
		}
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return iface.NumMethods() == 0
	}
	return false
}

// summarize computes the package's sink and owns facts to a fixpoint
// (summaries propagate through same-package call chains, e.g.
// transmit -> finishTransmit) and exports them to the shared store.
func summarize(pass *analysis.Pass, fns []*funcInfo) {
	local := make(map[*types.Func]*funcInfo, len(fns))
	for _, fi := range fns {
		local[fi.obj] = fi
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if !fi.sink && bodySinks(pass, local, fi.body) {
				fi.sink = true
				changed = true
			}
			if !fi.owns && len(fi.params) > 0 && bodyOwns(pass, local, fi) {
				fi.owns = true
				changed = true
			}
		}
	}
	pass.Facts.ExportPackageFact(pass.Pkg.Path(), analyzedFact, struct{}{})
	for _, fi := range fns {
		if fi.sink {
			pass.Facts.ExportObjectFact(fi.obj, sinkFact, struct{}{})
		}
		if fi.owns {
			pass.Facts.ExportObjectFact(fi.obj, ownsFact, struct{}{})
		}
	}
}

// bodySinks reports whether the body retires a credit: a credits or
// outstanding field increment, or a call to a known sink. Nested
// function literals count — a function whose literal eventually
// retires the credit still participates in the conservation law.
func bodySinks(pass *analysis.Pass, local map[*types.Func]*funcInfo, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if n.Tok == token.INC && creditField(pass.TypesInfo, n.X, "credits", "outstanding") {
				found = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
				creditField(pass.TypesInfo, n.Lhs[0], "credits", "outstanding") {
				found = true
			}
		case *ast.CallExpr:
			if callee := lintutil.CalleeFunc(pass.TypesInfo, n); callee != nil && isSink(pass, local, callee) {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyOwns reports whether the body takes ownership of one of the
// function's packet-like parameters: stores it into a field, slice, or
// map, or passes it to a function already known to take ownership.
// Propagation is deliberately narrow — unknown callees do not grant
// the fact (they only silence obligations at the check site).
func bodyOwns(pass *analysis.Pass, local map[*types.Func]*funcInfo, fi *funcInfo) bool {
	found := false
	ast.Inspect(fi.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !storesInto(n.Lhs) {
				return true
			}
			for _, rhs := range n.Rhs {
				for _, p := range fi.params {
					if usesValue(pass.TypesInfo, rhs, p) {
						found = true
					}
				}
			}
		case *ast.SendStmt:
			for _, p := range fi.params {
				if usesValue(pass.TypesInfo, n.Value, p) {
					found = true
				}
			}
		case *ast.CallExpr:
			callee := lintutil.CalleeFunc(pass.TypesInfo, n)
			if callee == nil || !isOwner(pass, local, callee) {
				return true
			}
			for _, arg := range n.Args {
				for _, p := range fi.params {
					if usesValue(pass.TypesInfo, arg, p) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// storesInto reports whether an assignment's left side writes through a
// structure — a field, index, or dereference — rather than rebinding
// plain locals.
func storesInto(lhs []ast.Expr) bool {
	for _, e := range lhs {
		switch ast.Unparen(e).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			return true
		}
	}
	return false
}

// isSink resolves a callee's sink summary: local fixpoint state first,
// then the cross-package fact store, then optimism for callees in
// packages whose summaries were never computed.
func isSink(pass *analysis.Pass, local map[*types.Func]*funcInfo, fn *types.Func) bool {
	if fi, ok := local[fn]; ok {
		return fi.sink
	}
	if _, ok := pass.Facts.ObjectFact(fn, sinkFact); ok {
		return true
	}
	return unanalyzed(pass, fn)
}

// isOwner is isSink's counterpart for ownership summaries.
func isOwner(pass *analysis.Pass, local map[*types.Func]*funcInfo, fn *types.Func) bool {
	if fi, ok := local[fn]; ok {
		return fi.owns
	}
	if _, ok := pass.Facts.ObjectFact(fn, ownsFact); ok {
		return true
	}
	return unanalyzed(pass, fn)
}

// unanalyzed reports whether fn lives in a package creditflow never
// summarized (outside the load set). Such callees are trusted to
// dispose of what they are handed — the analyzer stays quiet rather
// than guessing wrong — but, in bodyOwns and bodySinks, they never
// grant a summary either: local[fn] hits before this for
// current-package functions, so only truly foreign calls land here.
func unanalyzed(pass *analysis.Pass, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg() == pass.Pkg {
		return false // declared here but bodyless or not collected
	}
	_, analyzed := pass.Facts.PackageFact(fn.Pkg().Path(), analyzedFact)
	return !analyzed
}

// creditField reports whether e, stripped of indexing and parens,
// selects a struct field with one of the given names.
func creditField(info *types.Info, e ast.Expr, names ...string) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return false
			}
			for _, n := range names {
				if sel.Sel.Name == n {
					return true
				}
			}
			return false
		}
	}
}

// usesValue reports whether n uses v as a whole value. Field reads and
// method calls through v (v.Kind, v.Retire()) do not count: inspecting
// a packet is not an ownership transfer.
func usesValue(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && lintutil.ObjectOf(info, id) == v {
				return false
			}
		}
		if id, ok := x.(*ast.Ident); ok && lintutil.ObjectOf(info, id) == v {
			found = true
		}
		return !found
	})
	return found
}

// checkCredits finds each credit decrement in the function and verifies
// every path from it to the exit retires the credit.
func checkCredits(pass *analysis.Pass, dirs *lintutil.Directives, fi *funcInfo) {
	var obligations []ast.Node
	ast.Inspect(fi.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate function; separate CFG if it declares obligations
		case *ast.IncDecStmt:
			if n.Tok == token.DEC && creditField(pass.TypesInfo, n.X, "credits") {
				obligations = append(obligations, n)
			}
		case *ast.AssignStmt:
			if n.Tok == token.SUB_ASSIGN && len(n.Lhs) == 1 &&
				creditField(pass.TypesInfo, n.Lhs[0], "credits") {
				obligations = append(obligations, n)
			}
		}
		return true
	})
	// Literals nested in this body were pruned above; each is its own
	// function with its own CFG and obligations.
	for _, lit := range nestedLits(fi.body) {
		checkCredits(pass, dirs, &funcInfo{body: lit.Body})
	}
	if len(obligations) == 0 {
		return
	}
	g := cfg.New(fi.body)
	local := map[*types.Func]*funcInfo{}
	for _, ob := range obligations {
		if dirs.Allows(ob.Pos(), "creditsink") {
			continue
		}
		sol := cfg.Solve(g, mustProblem(func(n ast.Node, s int) int {
			if n == ob {
				return pending
			}
			if s == pending && creditRetired(pass, local, n) {
				return discharged
			}
			return s
		}))
		if sol.Out[g.Exit.Index] == pending {
			pass.Reportf(ob.Pos(), "credit decrement does not reach a credit sink on every path to return (retire it, or annotate //lint:creditsink)")
		}
	}
}

// nestedLits returns the function literals directly contained in body,
// excluding literals nested inside other literals (those are reached
// recursively).
func nestedLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// creditRetired reports whether executing n retires a credit: an
// increment of credits or outstanding, a call to a known sink, or a
// call through a func-typed value (delegation, e.g. Buffer's credit
// callback field).
func creditRetired(pass *analysis.Pass, local map[*types.Func]*funcInfo, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.IncDecStmt:
		return n.Tok == token.INC && creditField(pass.TypesInfo, n.X, "credits", "outstanding")
	case *ast.AssignStmt:
		return n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 &&
			creditField(pass.TypesInfo, n.Lhs[0], "credits", "outstanding")
	case *ast.CallExpr:
		if callee := lintutil.CalleeFunc(pass.TypesInfo, n); callee != nil {
			return isSink(pass, local, callee)
		}
		return dynamicCall(pass.TypesInfo, n)
	}
	return false
}

// dynamicCall reports whether the call goes through a func-typed value
// rather than a declared function, builtin, or type conversion.
func dynamicCall(info *types.Info, call *ast.CallExpr) bool {
	if lintutil.CalleeFunc(info, call) != nil {
		return false
	}
	t := info.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// deliveryLits finds the file's delivery closures: func literals nested
// in the arguments of a SetDeliver call, and func literals returned by
// a function or method named Deliver.
func deliveryLits(pass *analysis.Pass, f *ast.File) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := make(map[*ast.FuncLit]bool)
	add := func(lit *ast.FuncLit) {
		if !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := lintutil.CalleeFunc(pass.TypesInfo, call); callee != nil && callee.Name() == "SetDeliver" {
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if lit, ok := m.(*ast.FuncLit); ok {
							add(lit)
						}
						return true
					})
				}
			}
		}
		return true
	})
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name != "Deliver" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
					add(lit)
				}
			}
			return true
		})
	}
	return out
}

// checkDelivery verifies a delivery closure hands its packet parameter
// to an owning sink on every path to return.
func checkDelivery(pass *analysis.Pass, dirs *lintutil.Directives, fns []*funcInfo, lit *ast.FuncLit) {
	if dirs.Allows(lit.Pos(), "creditsink") {
		return
	}
	pkt := packetParam(pass, lit)
	if pkt == nil {
		return
	}
	local := make(map[*types.Func]*funcInfo, len(fns))
	for _, fi := range fns {
		local[fi.obj] = fi
	}
	g := cfg.New(lit.Body)
	prob := mustProblem(func(n ast.Node, s int) int {
		if s == pending && handsOff(pass, local, n, pkt) {
			return discharged
		}
		return s
	})
	prob.Boundary = pending // ownership is live from the first instruction
	sol := cfg.Solve(g, prob)
	if sol.Out[g.Exit.Index] == pending {
		pass.Reportf(lit.Pos(), "delivery closure does not hand packet %q to an owning sink on every path to return (store it, delegate it, or annotate //lint:creditsink)", pkt.Name())
	}
}

// packetParam returns the literal's first pointer-to-Packet parameter.
func packetParam(pass *analysis.Pass, lit *ast.FuncLit) *types.Var {
	sig, ok := pass.TypesInfo.TypeOf(lit).(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if ptr, ok := p.Type().(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "Packet" {
				return p
			}
		}
	}
	return nil
}

// handsOff reports whether executing n transfers ownership of pkt: a
// call passing it to an owner (or to an unanalyzed callee, or through a
// func value), a store of it, a channel send, or returning it.
func handsOff(pass *analysis.Pass, local map[*types.Func]*funcInfo, n ast.Node, pkt *types.Var) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		used := false
		for _, arg := range n.Args {
			if usesValue(pass.TypesInfo, arg, pkt) {
				used = true
				break
			}
		}
		if !used {
			return false
		}
		if callee := lintutil.CalleeFunc(pass.TypesInfo, n); callee != nil {
			return isOwner(pass, local, callee)
		}
		return dynamicCall(pass.TypesInfo, n)
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if usesValue(pass.TypesInfo, rhs, pkt) {
				return true
			}
		}
	case *ast.SendStmt:
		return usesValue(pass.TypesInfo, n.Value, pkt)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if usesValue(pass.TypesInfo, res, pkt) {
				return true
			}
		}
	}
	return false
}

// mustProblem builds the shared must-reach dataflow problem: forward,
// join = min over visited predecessors (pending poisons any merge),
// with step applied to each executable node in evaluation order. Defer
// statements are skipped at their registration site — the CFG replays
// the deferred calls into the exit block, where step sees them in LIFO
// order — and nested function literals are opaque: code a closure
// might run later neither opens nor retires an obligation here.
func mustProblem(step func(ast.Node, int) int) cfg.Problem[int] {
	scan := func(n ast.Node, s int) int {
		if _, ok := n.(*ast.DeferStmt); ok {
			return s
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if x != nil {
				s = step(x, s)
			}
			return true
		})
		return s
	}
	return cfg.Problem[int]{
		Dir:      cfg.Forward,
		Boundary: discharged,
		Init:     unvisited,
		Transfer: func(blk *cfg.Block, s int) int {
			for _, n := range blk.Nodes {
				s = scan(n, s)
			}
			if blk.Cond != nil {
				s = scan(blk.Cond, s)
			}
			return s
		},
		Join: func(a, b int) int {
			if a == unvisited {
				return b
			}
			if b == unvisited {
				return a
			}
			if b < a {
				return b
			}
			return a
		},
		Equal: func(a, b int) bool { return a == b },
	}
}
