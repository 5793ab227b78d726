// Package flow provides the intraprocedural control-flow and dataflow
// machinery under rentlint's flow-powered analyzers (poolescape, ctxflow,
// statusflow). It is pure stdlib: a CFG of basic blocks is built from a
// function body's go/ast statements (if/for/range/switch/select/goto and
// labeled break/continue all wired), and a small join-semilattice framework
// iterates configurable transfer functions to a forward fixpoint.
//
// The scope is deliberately intraprocedural: a Graph describes one function
// body and never descends into nested function literals (a FuncLit is an
// opaque expression of whichever statement carries it — analyzers recurse
// into literals by building a separate Graph for the literal's own body).
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal straight-line run of statements with
// control transfers only at the end. Nodes holds the statements (and, for
// branch heads, the clause node itself) in execution order.
type Block struct {
	Index int
	// Kind labels the block's syntactic role ("entry", "exit", "if.then",
	// "for.head", "switch.case", ...) for tests and debugging output.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the CFG of one function body. Entry starts the body; Exit is a
// synthetic block every return statement and fall-off-the-end path reaches.
// Blocks lists every block in creation order, including blocks unreachable
// from Entry (dead code after return, labels only reached by dead gotos).
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Reachable returns the blocks reachable from Entry in a deterministic
// (depth-first, successor-order) preorder. Analyses iterate this set so that
// statically dead code neither produces facts nor diagnostics.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		order = append(order, b)
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
	return order
}

// New builds the CFG of one function body. The body may be nil (a bodyless
// declaration), yielding a trivial entry→exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*labelInfo),
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit) // fall off the end of the body
	return b.g
}

type labelInfo struct {
	// target is the block a goto to this label lands on.
	target *Block
	// brk/cont are the break/continue destinations while the labeled
	// loop/switch/select is being built.
	brk, cont *Block
}

type builder struct {
	g *Graph
	// cur is the block under construction; nil after a terminator
	// (return/break/continue/goto/panic) until the next statement opens an
	// unreachable successor.
	cur *Block
	// breaks/conts stack the innermost unlabeled break/continue targets.
	breaks []*Block
	conts  []*Block
	labels map[string]*labelInfo
	// pendingLabel carries the label of a LabeledStmt into the loop or
	// switch it labels, so labeled break/continue resolve.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump terminates the current block with an edge to to (no-op on a dead
// path) and leaves the builder with no current block.
func (b *builder) jump(to *Block) {
	if b.cur != nil {
		edge(b.cur, to)
	}
	b.cur = nil
}

// append records a straight-line node on the current path, reviving the
// path into an unreachable block when a terminator preceded it.
func (b *builder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Consume the pending label immediately: it belongs to this statement
	// only, and must not leak into loops nested inside it.
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.append(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		b.labeled(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		b.switchStmt(s, s.Init, s.Tag, nil, s.Body, label)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s, s.Init, nil, s.Assign, s.Body, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.ExprStmt:
		b.append(s)
		if isPanic(s.X) {
			b.jump(b.g.Exit)
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line.
		b.append(s)
	}
}

// isPanic reports whether e is a call to the predeclared panic, which
// terminates the path like a return (the panic edge lands on Exit so that
// "checked or diverged on every path" analyses treat panicking branches as
// closed).
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.append(s)
	switch s.Tok {
	case token.BREAK:
		var t *Block
		if s.Label != nil {
			t = b.label(s.Label.Name).brk
		} else if len(b.breaks) > 0 {
			t = b.breaks[len(b.breaks)-1]
		}
		if t != nil {
			b.jump(t)
		} else {
			b.cur = nil // malformed code: sever the path
		}
	case token.CONTINUE:
		var t *Block
		if s.Label != nil {
			t = b.label(s.Label.Name).cont
		} else if len(b.conts) > 0 {
			t = b.conts[len(b.conts)-1]
		}
		if t != nil {
			b.jump(t)
		} else {
			b.cur = nil
		}
	case token.GOTO:
		li := b.label(s.Label.Name)
		if li.target == nil {
			li.target = b.newBlock("label." + s.Label.Name)
		}
		b.jump(li.target)
	case token.FALLTHROUGH:
		// Wired by switchStmt: the clause body's end block falls through to
		// the next clause. Nothing to do here; the path continues and
		// switchStmt links it.
	}
}

func (b *builder) labeled(s *ast.LabeledStmt) {
	li := b.label(s.Label.Name)
	if li.target == nil {
		li.target = b.newBlock("label." + s.Label.Name)
	}
	// Fall into the label block from the preceding statement.
	if b.cur != nil {
		edge(b.cur, li.target)
	}
	b.cur = li.target
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.append(s.Init)
	}
	b.append(s.Cond)
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
		b.cur = head
	}

	b.cur = nil
	thenB := b.newBlock("if.then")
	edge(head, thenB)
	b.cur = thenB
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		elseB := b.newBlock("if.else")
		edge(head, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock("if.join")
	if thenEnd != nil {
		edge(thenEnd, join)
	}
	if hasElse {
		if elseEnd != nil {
			edge(elseEnd, join)
		}
	} else {
		edge(head, join) // false edge skips the body
	}
	b.cur = join
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
	if label != "" {
		li := b.label(label)
		li.brk, li.cont = brk, cont
	}
}

func (b *builder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	if label != "" {
		li := b.label(label)
		li.brk, li.cont = nil, nil
	}
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.append(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	b.cur = head
	if s.Cond != nil {
		b.append(s.Cond)
	}

	after := b.newBlock("for.after")
	if s.Cond != nil {
		edge(head, after) // condition false
	}

	// continue lands on the post statement when present, else the head.
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		edge(post, head)
		cont = post
	}

	body := b.newBlock("for.body")
	edge(head, body)
	b.cur = body
	b.pushLoop(label, after, cont)
	b.stmtList(s.Body.List)
	b.popLoop(label)
	b.jump(cont)

	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	// The head evaluates the range operand and binds key/value each trip.
	head.Nodes = append(head.Nodes, s)
	b.jump(head)

	after := b.newBlock("range.after")
	edge(head, after) // range exhausted (possibly immediately)

	body := b.newBlock("range.body")
	edge(head, body)
	b.cur = body
	b.pushLoop(label, after, head)
	b.stmtList(s.Body.List)
	b.popLoop(label)
	b.jump(head)

	b.cur = after
}

// switchStmt wires expression and type switches: head → every clause (cases
// are evaluated in order but any one may run), clause ends → after,
// fallthrough → next clause body, no default → head → after.
func (b *builder) switchStmt(sw ast.Stmt, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) {
	if init != nil {
		b.append(init)
	}
	if tag != nil {
		b.append(tag)
	}
	if assign != nil {
		b.append(assign)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
		b.cur = head
	}
	after := b.newBlock("switch.after")

	// Build every clause body first so fallthrough can link clause i to
	// clause i+1's block.
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("switch.case")
		blocks[i].Nodes = append(blocks[i].Nodes, cc)
		edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, after)
	}

	b.pushLoop(label, after, nil)
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.popLoop(label)
	b.cur = after
}

// fallsThrough reports whether a case body ends in a fallthrough statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
		b.cur = head
	}
	head.Nodes = append(head.Nodes, s)
	after := b.newBlock("select.after")

	b.pushLoop(label, after, nil)
	any := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock("select.comm")
		blk.Nodes = append(blk.Nodes, cc)
		edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.popLoop(label)
	if !any {
		edge(head, after) // select{} blocks forever; keep the graph connected
	}
	b.cur = after
}
