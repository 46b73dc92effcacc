package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/types"
)

// connModel is the one definition of "a conn" the conn analyzers
// (connclose, deadlineflow, locknet) share: the net.Conn interface,
// the wrapped-conn fields module code stores a net.Conn in, and the
// calls that block on a peer.
type connModel struct {
	iface *types.Interface
	// fields are struct fields of interface type that some module code
	// assigns a net.Conn-implementing value — the "wrapped socket"
	// fields like rlpx frameRW.conn through which raw I/O flows.
	fields map[*types.Var]bool
}

// conns resolves the conn model for pkgs once per program and shares
// it between the analyzers of one run.
func (l *Loader) conns(pkgs []*Package) (*connModel, error) {
	prog := l.Program(pkgs)
	if l.connsFor != prog {
		l.connModel, l.connErr = newConnModel(l, pkgs)
		l.connsFor = prog
	}
	return l.connModel, l.connErr
}

func newConnModel(l *Loader, pkgs []*Package) (*connModel, error) {
	connType, err := l.StdType("net", "Conn")
	if err != nil {
		return nil, fmt.Errorf("cannot resolve net.Conn: %v", err)
	}
	iface, ok := connType.Underlying().(*types.Interface)
	if !ok {
		return nil, errors.New("net.Conn is not an interface?")
	}
	cm := &connModel{iface: iface, fields: make(map[*types.Var]bool)}
	addIfConn := func(pkg *Package, field types.Object, val ast.Expr) {
		v, ok := field.(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		if _, isIface := v.Type().Underlying().(*types.Interface); !isIface {
			return
		}
		if t := pkg.Info.TypeOf(val); t != nil && cm.implements(t) {
			cm.fields[v] = true
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if obj := pkg.Info.Uses[key]; obj != nil {
							addIfConn(pkg, obj, kv.Value)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
							addIfConn(pkg, obj, n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	return cm, nil
}

// implements reports whether t (or *t) implements net.Conn.
func (cm *connModel) implements(t types.Type) bool {
	if types.Implements(t, cm.iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), cm.iface)
	}
	return false
}

// connish reports whether e's type implements net.Conn or e selects a
// wrapped-conn field.
func (cm *connModel) connish(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && cm.fields[v] {
			return true
		}
	}
	t := info.TypeOf(e)
	return t != nil && cm.implements(t)
}

// connIO reports whether call is I/O that blocks on a peer: Read or
// Write on a conn-ish value, or an io helper (ReadFull, ReadAtLeast,
// ReadAll, Copy, CopyN, WriteString) handed one. It returns the conn
// expression and the operation ("Read", "Write", or "io.ReadFull"
// style for helpers, with helper set).
func (cm *connModel) connIO(info *types.Info, call *ast.CallExpr) (conn ast.Expr, op string, helper bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	name := sel.Sel.Name
	if (name == "Read" || name == "Write") && cm.connish(info, sel.X) {
		return sel.X, name, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "io" {
		return nil, "", false
	}
	switch name {
	case "ReadFull", "ReadAtLeast", "ReadAll", "Copy", "CopyN", "WriteString":
		// The conn is the reader or the writer: one of the first two.
		for i := 0; i < len(call.Args) && i < 2; i++ {
			if cm.connish(info, call.Args[i]) {
				return call.Args[i], "io." + name, true
			}
		}
	}
	return nil, "", false
}
