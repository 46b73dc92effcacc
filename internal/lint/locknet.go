package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockNet reports mutexes held across net.Conn reads/writes or
// blocking channel operations. A peer controls how long a conn read
// blocks (up to the socket deadline — 30 s for a frame read), so a
// lock held across one turns a single slow peer into a stall of every
// goroutine contending for that lock. TestChaosCrawl can only find
// this shape probabilistically; the analyzer finds it by construction.
//
// The analysis is a callback over walkHeld, the lockset walk it
// shares with sharedstate: each function's statements in order, with
// the set of mutexes locked (by receiver expression). While the set
// is non-empty it flags conn I/O as the conn model defines it (the
// same connIO deadlineflow checks: Read/Write on a net.Conn or a
// wrapped-conn field, io helpers such as ReadFull or WriteString
// handed one), channel sends and receives, ranges over channels, and
// select statements without a default clause. A deferred Unlock
// keeps the mutex held for the remainder of the function, which is
// exactly the property the analyzer cares about.
type LockNet struct{}

// Name implements Analyzer.
func (ln *LockNet) Name() string { return "locknet" }

// Doc implements Analyzer.
func (ln *LockNet) Doc() string {
	return "no mutex may be held across net.Conn I/O or blocking channel ops"
}

// Run implements Analyzer.
func (ln *LockNet) Run(l *Loader, pkgs []*Package) []Finding {
	cm, err := l.conns(pkgs)
	if err != nil {
		return []Finding{{Analyzer: ln.Name(), Message: err.Error()}}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		report := func(pos token.Pos, what string, held map[string]bool) {
			findings = append(findings, Finding{
				Pos:      pkg.Fset.Position(pos),
				Analyzer: ln.Name(),
				Message: fmt.Sprintf("%s while holding mutex %s: a slow peer can stall every contender on this lock",
					what, heldNames(held)),
			})
		}
		// checkBlocking flags receives and conn I/O inside an
		// expression, not descending into function literals.
		checkBlocking := func(expr ast.Expr, held map[string]bool) {
			ast.Inspect(expr, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.UnaryExpr:
					if e.Op == token.ARROW {
						report(e.Pos(), "channel receive", held)
					}
				case *ast.CallExpr:
					conn, op, helper := cm.connIO(pkg.Info, e)
					switch {
					case conn == nil:
					case helper:
						report(e.Pos(), fmt.Sprintf("%s on net.Conn %s", op, types.ExprString(conn)), held)
					default:
						report(e.Pos(), fmt.Sprintf("%s.%s on net.Conn", types.ExprString(conn), op), held)
					}
				}
				return true
			})
		}
		visit := func(n ast.Node, held map[string]bool, in ast.Stmt) {
			if len(held) == 0 {
				return
			}
			switch in := in.(type) {
			case *ast.ForStmt:
				if n == in.Post {
					return
				}
			case *ast.TypeSwitchStmt:
				return
			case *ast.RangeStmt:
				// Ranging over a channel blocks per iteration.
				if t := pkg.Info.TypeOf(in.X); t != nil && isChanType(t) {
					report(in.Pos(), "range over channel", held)
				}
				return
			case *ast.SelectStmt:
				if n == in && !selectHasDefault(in) {
					report(in.Pos(), "blocking select", held)
				}
				return // comm clauses are covered by the select itself
			}
			switch n := n.(type) {
			case ast.Expr:
				checkBlocking(n, held)
			case *ast.ExprStmt:
				checkBlocking(n.X, held)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkBlocking(rhs, held)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					checkBlocking(r, held)
				}
			case *ast.SendStmt:
				report(n.Pos(), "channel send", held)
			}
			// A spawned goroutine does not inherit the critical
			// section, and a deferred call other than Unlock runs after
			// the lock is released.
		}
		for _, file := range pkg.Files {
			for _, body := range funcBodies(file) {
				walkHeld(pkg.Info, body.List, map[string]bool{}, visit)
			}
		}
	}
	return findings
}

// selectHasDefault reports whether a select has a default clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
			return true
		}
	}
	return false
}

// heldNames renders the held set for messages.
func heldNames(held map[string]bool) string {
	out := ""
	for k := range held {
		if out != "" {
			out += ", "
		}
		out += k
	}
	return out
}
