// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward/backward dataflow problems on
// them, using only the standard library. It is the engine under
// mnlint's semantic analyzers (creditflow, fsmcheck, and the
// rewritten poolcheck): where the original analyzers reasoned in
// source order, these reason over paths — a credit consumed on one
// branch and returned only on another is exactly the class of bug a
// source-order walk cannot see.
//
// The graph is a conventional basic-block CFG:
//
//   - Every simple statement (assignment, inc/dec, expression, decl,
//     send, empty) lands in a block's Nodes slice in execution order.
//   - Branch conditions are recorded both in Nodes (their side effects
//     execute) and as the block's Cond, with the convention that
//     Succs[0] is the true edge and Succs[1] the false edge, so
//     path-sensitive analyses can refine facts per edge.
//   - return and calls to the builtin panic terminate a block with no
//     successors (panic paths are not "reaching exit" — a leaked
//     obligation on a path that dies in panic is noise, not a bug).
//     Return blocks instead link to the synthetic Exit block.
//   - defer statements are collected per function and their calls
//     replayed into the Exit block in LIFO order, so "discharged by a
//     deferred call" falls out of ordinary reachability.
//
// for/range/switch/type-switch/select/goto and labeled break/continue
// are all supported; see the builder below for the exact shapes.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of AST
// nodes with a single entry and (up to) two ordered successors.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, used as a
	// dense map key by the solver).
	Index int
	// Nodes holds the block's statements and evaluated expressions in
	// execution order.
	Nodes []ast.Node
	// Cond, when non-nil, is the branch condition evaluated at the end
	// of the block; Succs[0] is then the true edge and Succs[1] the
	// false edge.
	Cond ast.Expr
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block

	// kind tags synthetic blocks for String/debugging.
	kind string
}

// Graph is the CFG of one function body.
type Graph struct {
	// Entry is executed first; Exit is reached by every normal return
	// path (panic paths have no successors at all).
	Entry, Exit *Block
	// Blocks lists every block, Entry first, Exit last.
	Blocks []*Block
	// Defers holds the deferred call expressions in registration
	// (source) order; they are also replayed LIFO into Exit.Nodes.
	Defers []*ast.CallExpr
}

// builder carries the state of one CFG construction.
type builder struct {
	g *Graph
	// cur is the block new nodes append to; nil after a terminator
	// (return/panic/break/...) until the next label or join point.
	cur *Block

	// breakTo / continueTo map enclosing loop & switch scopes (innermost
	// last) to their break and continue targets.
	breakTo    []*Block
	continueTo []*Block
	// labels maps label names to their blocks: break/continue targets
	// for labeled statements and goto destinations.
	labelBreak    map[string]*Block
	labelContinue map[string]*Block
	gotos         map[string]*Block // label -> block started at the label
	// pendingGotos are goto statements seen before their label.
	pendingGotos map[string][]*Block
	// pendingLabel is the label of the LabeledStmt currently being
	// built, so a labeled for/range/switch registers its break and
	// continue targets under that name.
	pendingLabel string
	// returns collects blocks ended by a return statement; New wires
	// them to Exit after the walk.
	returns []*Block
}

// New builds the CFG of a function body. A nil body yields a trivial
// entry->exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:             &Graph{},
		labelBreak:    map[string]*Block{},
		labelContinue: map[string]*Block{},
		gotos:         map[string]*Block{},
		pendingGotos:  map[string][]*Block{},
	}
	entry := b.newBlock("entry")
	exit := &Block{kind: "exit"}
	b.g.Entry = entry
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Normal fall-off-the-end return, plus every explicit return.
	b.jumpTo(exit)
	for _, r := range b.returns {
		edge(r, exit)
	}
	exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, exit)
	b.g.Exit = exit
	// Replay deferred calls into Exit in LIFO order so analyses see
	// them on every normal path out of the function.
	for i := len(b.g.Defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.g.Defers[i])
	}
	return b.g
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds from->to.
func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jumpTo ends the current block with an unconditional edge to dst (a
// no-op when the current path is already terminated).
func (b *builder) jumpTo(dst *Block) {
	if b.cur != nil {
		edge(b.cur, dst)
	}
	b.cur = nil
}

// startBlock begins appending to blk.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// add appends a node to the current block, starting an unreachable
// block if the path was terminated (dead code still gets analyzed —
// it just has no predecessors).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		if b.cur != nil {
			b.cur.Cond = s.Cond
		}
		condBlk := b.cur
		thenBlk := b.newBlock("if.then")
		done := b.newBlock("if.done")
		if condBlk != nil {
			edge(condBlk, thenBlk) // Succs[0]: true
		}
		b.startBlock(thenBlk)
		b.stmtList(s.Body.List)
		b.jumpTo(done)
		if s.Else != nil {
			elseBlk := b.newBlock("if.else")
			if condBlk != nil {
				edge(condBlk, elseBlk) // Succs[1]: false
			}
			b.startBlock(elseBlk)
			b.stmt(s.Else)
			b.jumpTo(done)
		} else if condBlk != nil {
			edge(condBlk, done) // Succs[1]: false falls through
		}
		b.startBlock(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jumpTo(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.cur.Cond = s.Cond
			edge(b.cur, body) // true
			edge(b.cur, done) // false
		} else {
			edge(b.cur, body)
		}
		b.pushLoop(done, post)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jumpTo(post)
		if s.Post != nil {
			b.startBlock(post)
			b.stmt(s.Post)
			b.jumpTo(head)
		}
		b.startBlock(done)

	case *ast.RangeStmt:
		// Model: head evaluates X and the per-iteration key/value
		// assignment; body may repeat or exit.
		b.add(s.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.jumpTo(head)
		b.startBlock(head)
		// The per-iteration key/value idents are evaluated (and, for
		// analyses, rebound) at the head of each iteration.
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		edge(b.cur, body)
		edge(b.cur, done)
		b.pushLoop(done, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jumpTo(head)
		b.startBlock(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseSwitch(s.Body, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseSwitch(s.Body, func(cc *ast.CaseClause) {})

	case *ast.SelectStmt:
		// Every comm clause is a possible successor; a select with no
		// default blocks until one fires, so control always leaves
		// through some clause (or never, for an empty select).
		head := b.cur
		if head == nil {
			head = b.newBlock("select.head")
			b.startBlock(head)
		}
		done := b.newBlock("select.done")
		b.pushBreak(done)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			edge(head, blk)
			b.startBlock(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jumpTo(done)
		}
		b.popBreak()
		// A select{} with no clauses blocks forever: done then has no
		// predecessors, which models the unreachability exactly.
		b.startBlock(done)

	case *ast.LabeledStmt:
		name := s.Label.Name
		target := b.newBlock("label." + name)
		b.jumpTo(target)
		// Wire any gotos that jumped forward to this label.
		for _, src := range b.pendingGotos[name] {
			edge(src, target)
		}
		delete(b.pendingGotos, name)
		b.gotos[name] = target
		b.startBlock(target)
		// For labeled loops/switches, break LABEL / continue LABEL must
		// resolve to the statement's own targets; stash the label so the
		// loop builders can register it.
		b.pendingLabel = name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t := b.labelBreak[s.Label.Name]; t != nil {
					b.jumpTo(t)
				} else {
					b.cur = nil
				}
			} else if n := len(b.breakTo); n > 0 {
				b.jumpTo(b.breakTo[n-1])
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if s.Label != nil {
				if t := b.labelContinue[s.Label.Name]; t != nil {
					b.jumpTo(t)
				} else {
					b.cur = nil
				}
			} else if t := b.innerContinue(); t != nil {
				// Skip switch/select frames (their continue slot is nil)
				// down to the innermost enclosing loop.
				b.jumpTo(t)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			name := s.Label.Name
			if t, ok := b.gotos[name]; ok {
				b.jumpTo(t)
			} else if b.cur != nil {
				b.pendingGotos[name] = append(b.pendingGotos[name], b.cur)
				b.cur = nil
			}
		case token.FALLTHROUGH:
			// Handled structurally by caseSwitch.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.returns = append(b.returns, b.cur)
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s.X)
		if isPanic(s.X) {
			// The path dies here: no successors, not even Exit.
			b.cur = nil
		}

	case *ast.GoStmt:
		b.add(s)

	case nil:
		// nothing

	default:
		// AssignStmt, IncDecStmt, DeclStmt, SendStmt, EmptyStmt, ...
		b.add(s)
	}
}

// caseSwitch builds the shared switch / type-switch shape: the tag
// block fans out to each case (plus done when there is no default),
// and fallthrough chains a case body into the next.
func (b *builder) caseSwitch(body *ast.BlockStmt, emitExprs func(*ast.CaseClause)) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.startBlock(head)
		head = b.cur
	}
	done := b.newBlock("switch.done")
	b.pushBreak(done)

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		caseBlocks[i] = b.newBlock("switch.case")
		if cc.List == nil {
			hasDefault = true
		}
		edge(head, caseBlocks[i])
	}
	if !hasDefault {
		edge(head, done)
	}
	for i, cc := range clauses {
		b.startBlock(caseBlocks[i])
		emitExprs(cc)
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:n-1]
				fallsThrough = true
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(caseBlocks) {
			b.jumpTo(caseBlocks[i+1])
		} else {
			b.jumpTo(done)
		}
	}
	b.popBreak()
	b.startBlock(done)
}

// innerContinue returns the innermost non-nil continue target (switch
// and select frames park a nil in the continue stack).
func (b *builder) innerContinue() *Block {
	for i := len(b.continueTo) - 1; i >= 0; i-- {
		if b.continueTo[i] != nil {
			return b.continueTo[i]
		}
	}
	return nil
}

// pushLoop registers break/continue targets for a loop, including the
// pending label of an enclosing LabeledStmt.
func (b *builder) pushLoop(brk, cont *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = brk
		b.labelContinue[b.pendingLabel] = cont
		b.pendingLabel = ""
	}
}

func (b *builder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

// pushBreak registers only a break target (switch/select).
func (b *builder) pushBreak(brk *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, nil)
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = brk
		b.pendingLabel = ""
	}
}

func (b *builder) popBreak() { b.popLoop() }

// isPanic reports whether the expression is a call to the builtin
// panic (the only terminator mnlint's analyses care about: a path that
// panics is not a leak path).
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
