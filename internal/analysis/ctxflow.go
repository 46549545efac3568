package analysis

import (
	"go/ast"
	"go/types"
)

const clusterPath = module + "/internal/cluster"

// ctxFlow returns the analyzer enforcing that cancellation is an
// end-to-end property. Three shapes are flagged:
//
//   - cluster.Background() anywhere in library code: a library
//     function always has a Ctx (or an options default) to thread, so
//     minting the root detaches the operation from every caller's
//     cancellation scope.
//   - a function that receives a *cluster.Ctx but passes
//     cluster.Background() to a Ctx-accepting callee.
//   - a function that receives a *cluster.Ctx but calls an
//     option-style API (variadic ...XxxOption whose package provides
//     WithCtx) without forwarding via WithCtx(ctx).
func ctxFlow() *Analyzer {
	a := &Analyzer{
		Name:      "ctxflow",
		Doc:       "a received cluster.Ctx must be forwarded; cluster.Background() is banned in library code",
		skipTests: true, // tests are legitimate operation roots
		allowedPaths: []string{
			module + "/cmd",      // mains are where operations start
			module + "/examples", // likewise
		},
	}
	a.run = func(p *Package) []Finding {
		var out []Finding
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						walkCtxFlow(p, a.Name, d.Body, hasCtxParam(p, d.Type), &out)
					}
				case *ast.GenDecl:
					// Package-level var initializers can call Background too.
					ast.Inspect(d, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok && isBackgroundCall(p.info, call) {
							p.findingf(&out, a.Name, call.Pos(),
								"cluster.Background() in library code detaches the operation from every caller's cancellation scope; thread a Ctx instead")
						}
						return true
					})
				}
			}
		}
		return out
	}
	return a
}

// hasCtxParam reports whether the function type declares a named
// (forwardable) *cluster.Ctx parameter.
func hasCtxParam(p *Package, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := p.info.Types[field.Type]
		if !ok || !isNamed(tv.Type, clusterPath, "Ctx") {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return true
			}
		}
	}
	return false
}

// walkCtxFlow scans a function body. hasCtx is true when the enclosing
// function (or a lexically enclosing one — closures capture ctx)
// received a forwardable Ctx.
func walkCtxFlow(p *Package, rule string, body *ast.BlockStmt, hasCtx bool, out *[]Finding) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walkCtxFlow(p, rule, n.Body, hasCtx || hasCtxParam(p, n.Type), out)
			return false
		case *ast.CallExpr:
			checkCtxCall(p, rule, n, hasCtx, out)
		}
		return true
	})
}

func checkCtxCall(p *Package, rule string, call *ast.CallExpr, hasCtx bool, out *[]Finding) {
	if isBackgroundCall(p.info, call) {
		if hasCtx {
			p.findingf(out, rule, call.Pos(),
				"function receives a *cluster.Ctx but mints cluster.Background() here; forward the received ctx")
		} else {
			p.findingf(out, rule, call.Pos(),
				"cluster.Background() in library code detaches the operation from every caller's cancellation scope; thread a Ctx instead")
		}
		return
	}
	if !hasCtx {
		return
	}
	// Option-style callee: variadic ...XxxOption whose defining package
	// provides WithCtx. Forwarding is required unless an opaque option
	// value (variable, spread) is passed — those may already carry ctx.
	fn := funcObj(p.info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	optPkg, ok := optionPkgWithCtx(sig)
	if !ok {
		return
	}
	fixed := sig.Params().Len() - 1
	if len(call.Args) < fixed {
		return
	}
	for _, arg := range call.Args[fixed:] {
		argCall, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			return // opaque option value; assume it may carry ctx
		}
		if af := funcObj(p.info, argCall); af != nil && af.Name() == "WithCtx" {
			return // forwarded
		}
	}
	p.findingf(out, rule, call.Pos(),
		"function receives a *cluster.Ctx but calls %s.%s without %s.WithCtx(ctx); the callee escapes the cancellation scope",
		fn.Pkg().Name(), fn.Name(), optPkg.Name())
}

// optionPkgWithCtx inspects a variadic signature's element type: if it
// is a named ...XxxOption type whose package declares WithCtx, that
// package is returned.
func optionPkgWithCtx(sig *types.Signature) (*types.Package, bool) {
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return nil, false
	}
	named, ok := slice.Elem().(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || len(obj.Name()) < len("Option") || obj.Name()[len(obj.Name())-len("Option"):] != "Option" {
		return nil, false
	}
	if _, isFn := obj.Pkg().Scope().Lookup("WithCtx").(*types.Func); !isFn {
		return nil, false
	}
	return obj.Pkg(), true
}

// isBackgroundCall reports whether call is cluster.Background().
func isBackgroundCall(info *types.Info, call *ast.CallExpr) bool {
	fn := funcObj(info, call)
	return fn != nil && fn.Name() == "Background" && fn.Pkg() != nil && fn.Pkg().Path() == clusterPath
}
