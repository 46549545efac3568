package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sentinelCmp returns the analyzer banning ==/!= (and switch cases)
// against exported package-level error values. The typed error
// contract — core.ErrNoSuchVersion, cluster.ErrCanceled, io.EOF, ... —
// only holds through errors.Is: every layer is free to wrap a sentinel
// with fmt.Errorf("%w", ...), and an identity comparison silently stops
// matching the moment one does. Matching an error by its text — err.Error() compared with ==
// or != or searched with strings.Contains, HasPrefix or HasSuffix — is
// banned with it: a message is not a contract, and it changes the
// moment any layer rewords or wraps.
func sentinelCmp() *Analyzer {
	a := &Analyzer{
		Name: "sentinelcmp",
		Doc:  "==/!= against a sentinel error value, or matching an error by its message; use errors.Is",
		// Applies everywhere, tests included: test assertions break
		// just as silently when a sentinel gets wrapped.
	}
	a.run = func(p *Package) []Finding {
		var out []Finding
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					if isNilExpr(p.info, n.X) || isNilExpr(p.info, n.Y) {
						return true // err == nil is the one legal identity check
					}
					for _, side := range []ast.Expr{n.X, n.Y} {
						if name, ok := sentinelError(p.info, side); ok {
							p.findingf(&out, a.Name, n.Pos(),
								"%s comparison against sentinel error %s breaks once the error is wrapped; use errors.Is", n.Op, name)
							break
						}
						if isErrorText(p.info, side) {
							p.findingf(&out, a.Name, n.Pos(),
								"%s comparison of an error's message; match the error with errors.Is or errors.As", n.Op)
							break
						}
					}
				case *ast.CallExpr:
					fn := funcObj(p.info, n)
					if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || len(n.Args) == 0 {
						return true
					}
					switch fn.Name() {
					case "Contains", "HasPrefix", "HasSuffix":
						if isErrorText(p.info, n.Args[0]) {
							p.findingf(&out, a.Name, n.Pos(),
								"strings.%s on an error's message; match the error with errors.Is or errors.As", fn.Name())
						}
					}
				case *ast.SwitchStmt:
					if n.Tag == nil {
						return true
					}
					tv, ok := p.info.Types[n.Tag]
					if !ok || tv.Type == nil || !implementsError(tv.Type) {
						return true
					}
					for _, stmt := range n.Body.List {
						cc, ok := stmt.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if name, ok := sentinelError(p.info, e); ok {
								p.findingf(&out, a.Name, e.Pos(),
									"switch case compares against sentinel error %s by identity; use errors.Is", name)
							}
						}
					}
				}
				return true
			})
		}
		return out
	}
	return a
}

// sentinelError reports whether e resolves to an exported
// package-level variable that satisfies the error interface, returning
// its qualified name.
func sentinelError(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !v.Exported() || v.Pkg() == nil {
		return "", false
	}
	if v.Parent() != v.Pkg().Scope() { // not package-level
		return "", false
	}
	if !implementsError(v.Type()) {
		return "", false
	}
	return v.Pkg().Name() + "." + v.Name(), true
}

// isErrorText reports whether e is a call x.Error() on a value that
// satisfies the error interface.
func isErrorText(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && tv.Type != nil && implementsError(tv.Type)
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
