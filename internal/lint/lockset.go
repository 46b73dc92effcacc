package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// heldVisitor receives one node of a lockset walk with the set of
// mutexes held there. in is the compound statement n belongs to when
// n is part of that statement's header rather than a statement of a
// block: an if/for/switch condition or tag, a for loop's Post, a
// range's X, a type switch's Assign, or a select's comm statement. A
// select is also visited itself (n == in) before its clauses.
type heldVisitor func(n ast.Node, held map[string]bool, in ast.Stmt)

// walkHeld walks a statement list in source order tracking the set of
// held mutexes by receiver expression: Lock/RLock add, Unlock/RUnlock
// remove, a deferred Unlock keeps the lock held for the rest of the
// function, and every branch runs under a clone. It is the one
// lockset walk locknet and sharedstate share; visit sees every other
// simple statement (in == nil) and every compound-statement header.
func walkHeld(info *types.Info, list []ast.Stmt, held map[string]bool, visit heldVisitor) {
	for _, stmt := range list {
		walkHeldStmt(info, stmt, held, nil, visit)
	}
}

func walkHeldStmt(info *types.Info, stmt ast.Stmt, held map[string]bool, in ast.Stmt, visit heldVisitor) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, name, ok := syncLockOp(info, call); ok {
				switch name {
				case "Lock", "RLock":
					held[recv] = true
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				return
			}
		}
		visit(s, held, in)
	case *ast.DeferStmt:
		if _, name, ok := syncLockOp(info, s.Call); ok && (name == "Unlock" || name == "RUnlock") {
			return // lock stays held for the rest of the function
		}
		visit(s, held, in)
	case *ast.IfStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, nil, visit)
		}
		visit(s.Cond, held, s)
		walkHeld(info, s.Body.List, maps.Clone(held), visit)
		if s.Else != nil {
			walkHeldStmt(info, s.Else, maps.Clone(held), nil, visit)
		}
	case *ast.ForStmt:
		inner := maps.Clone(held)
		if s.Init != nil {
			walkHeldStmt(info, s.Init, inner, nil, visit)
		}
		if s.Cond != nil {
			visit(s.Cond, inner, s)
		}
		walkHeld(info, s.Body.List, inner, visit)
		if s.Post != nil {
			walkHeldStmt(info, s.Post, inner, s, visit)
		}
	case *ast.RangeStmt:
		visit(s.X, held, s)
		walkHeld(info, s.Body.List, maps.Clone(held), visit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, nil, visit)
		}
		if s.Tag != nil {
			visit(s.Tag, held, s)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				walkHeld(info, clause.Body, maps.Clone(held), visit)
			}
		}
	case *ast.TypeSwitchStmt:
		visit(s.Assign, held, s)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				walkHeld(info, clause.Body, maps.Clone(held), visit)
			}
		}
	case *ast.SelectStmt:
		visit(s, held, s)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				inner := maps.Clone(held)
				if clause.Comm != nil {
					walkHeldStmt(info, clause.Comm, inner, s, visit)
				}
				walkHeld(info, clause.Body, inner, visit)
			}
		}
	case *ast.BlockStmt:
		walkHeld(info, s.List, held, visit)
	case *ast.LabeledStmt:
		walkHeldStmt(info, s.Stmt, held, in, visit)
	case nil:
	default:
		// Assign, Send, IncDec, Return, Decl, Go, Branch, Empty.
		visit(s, held, in)
	}
}

// syncLockOp reports whether call is sync.Mutex/RWMutex Lock/Unlock
// (or RLock/RUnlock), returning the receiver's expression string.
func syncLockOp(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), name, true
}
