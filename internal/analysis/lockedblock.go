package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// blockingMethods maps "pkgpath.TypeName" to the methods that park the
// calling goroutine until virtual time advances. Holding a real mutex
// across any of them is the classic sim-deadlock source: the goroutine
// that would produce the wake-up event may first need the held mutex.
var blockingMethods = map[string]map[string]bool{
	clusterPath + ".Env": {
		"RTT": true, "OneWay": true, "Unicast": true, "Scatter": true,
		"Gather": true, "Pipeline": true, "Sleep": true,
		"DiskRead": true, "DiskWrite": true,
	},
	clusterPath + ".Sim": {
		"RTT": true, "OneWay": true, "Unicast": true, "Scatter": true,
		"Gather": true, "Pipeline": true, "Sleep": true,
		"DiskRead": true, "DiskWrite": true,
	},
	clusterPath + ".Local": {
		"Sleep": true,
	},
	clusterPath + ".Signal":    {"Wait": true},
	clusterPath + ".WaitGroup": {"Wait": true},
	clusterPath + ".Ctx":       {"Wait": true},
}

// lockedBlock returns the best-effort intraprocedural analyzer that
// flags blocking environment calls made while a sync.Mutex or
// sync.RWMutex is held. It tracks Lock/RLock and Unlock/RUnlock pairs
// (including deferred unlocks, which hold to function end) through
// straight-line code, descending into branch and loop bodies with the
// entry lock state. Beyond direct calls, a package-local fixpoint
// marks same-package functions that (transitively) reach a blocking
// call, so `mu.Lock(); vm.serve()` is flagged even though the Sleep
// hides one frame down.
func lockedBlock() *Analyzer {
	a := &Analyzer{
		Name:      "lockedblock",
		Doc:       "blocking Env/Signal/WaitGroup call while a mutex is held",
		skipTests: true,
		allowedPaths: []string{
			module + "/internal/sim",     // the scheduler's own primitives
			module + "/internal/cluster", // Local's signal/waitgroup shims
		},
	}
	a.run = func(p *Package) []Finding {
		var out []Finding
		blockers := packageBlockers(p)
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &lockScan{p: p, rule: a.Name, blockers: blockers, out: &out}
				s.stmts(fd.Body.List, map[string]token.Pos{})
			}
		}
		return out
	}
	return a
}

type lockScan struct {
	p        *Package
	rule     string
	blockers map[*types.Func]string
	out      *[]Finding
}

// packageBlockers computes, to a fixpoint, the package's functions
// that (transitively through same-package calls) reach a blocking
// environment call. The value is the human-readable chain, e.g.
// "serve → Env.Sleep". Function-literal bodies are excluded: a
// closure usually executes on another goroutine (wg.Go, Daemon), where
// its blocking is that goroutine's business.
func packageBlockers(p *Package) map[*types.Func]string {
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd
			}
		}
	}
	blockers := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for fn, fd := range bodies {
			if _, done := blockers[fn]; done {
				continue
			}
			if chain, ok := reachesBlocking(p, fd, blockers); ok {
				blockers[fn] = chain
				changed = true
			}
		}
	}
	return blockers
}

// reachesBlocking reports whether the function body makes a blocking
// call directly or calls a known same-package blocker, skipping
// function literals. A function that unlocks a mutex before its first
// blocking call is treated as lock-aware — it manages the caller's
// lock itself (the `w.mu.Unlock(); sig.Wait(); w.mu.Lock()` shape) —
// and is not marked a blocker.
func reachesBlocking(p *Package, fd *ast.FuncDecl, blockers map[*types.Func]string) (string, bool) {
	var chain string
	sawUnlock := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if chain != "" || sawUnlock {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(p.info, call)
		if fn == nil {
			return true
		}
		pkgPath, typeName := recvNamed(fn)
		if pkgPath == "sync" && (typeName == "Mutex" || typeName == "RWMutex") &&
			(fn.Name() == "Unlock" || fn.Name() == "RUnlock") {
			// Deferred unlocks run at return and release nothing early.
			if !isDeferred(fd.Body, call) {
				sawUnlock = true
				return false
			}
			return true
		}
		if blockingMethods[pkgPath+"."+typeName][fn.Name()] {
			chain = typeName + "." + fn.Name()
			return false
		}
		if sub, ok := blockers[fn]; ok && fn.Pkg() == p.pkg {
			chain = fn.Name() + " -> " + sub
			return false
		}
		return true
	})
	return chain, chain != ""
}

// isDeferred reports whether call appears as the call of a defer
// statement within body.
func isDeferred(body *ast.BlockStmt, call *ast.CallExpr) bool {
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			deferred = true
		}
		return !deferred
	})
	return deferred
}

// stmts walks a statement list sequentially, threading the held-lock
// state (receiver expression -> position of the Lock call) through it.
func (s *lockScan) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, st := range list {
		s.stmt(st, held)
	}
}

func (s *lockScan) stmt(st ast.Stmt, held map[string]token.Pos) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.stmts(st.List, held)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.exprs(st.Cond, held)
		s.stmts(st.Body.List, clone(held))
		if st.Else != nil {
			s.stmt(st.Else, clone(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.exprs(st.Cond, held)
		}
		inner := clone(held)
		s.stmts(st.Body.List, inner)
		if st.Post != nil {
			s.stmt(st.Post, inner)
		}
	case *ast.RangeStmt:
		s.exprs(st.X, held)
		s.stmts(st.Body.List, clone(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.exprs(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.exprs(e, held)
				}
				s.stmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmts(cc.Body, clone(held))
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to function end, so
		// the held state is deliberately untouched. Other deferred
		// calls run at return time, outside this scan's straight-line
		// model; their argument expressions evaluate now, though.
		for _, arg := range st.Call.Args {
			s.exprs(arg, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine starts with no locks of its own (and
		// nakedgo flags the statement where it is banned). Argument
		// expressions evaluate in the spawning goroutine.
		for _, arg := range st.Call.Args {
			s.exprs(arg, held)
		}
	default:
		s.exprs(st, held)
	}
}

// exprs scans any node's expression tree in source order, applying
// lock/unlock effects and flagging blocking calls made under a held
// lock. Function literals get a fresh lock state unless immediately
// invoked.
func (s *lockScan) exprs(n ast.Node, held map[string]token.Pos) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// Immediately-invoked literals run under the current
			// locks; others execute elsewhere with a fresh state.
			// (The parent CallExpr case below handles IIFEs.)
			s.stmts(node.Body.List, map[string]token.Pos{})
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(node.Fun).(*ast.FuncLit); ok {
				for _, arg := range node.Args {
					s.exprs(arg, held)
				}
				s.stmts(lit.Body.List, held)
				return false
			}
			s.call(node, held)
		}
		return true
	})
}

// call applies one call's effect on the lock state or reports it.
func (s *lockScan) call(call *ast.CallExpr, held map[string]token.Pos) {
	fn := funcObj(s.p.info, call)
	if fn == nil {
		return
	}
	pkgPath, typeName := recvNamed(fn)
	if pkgPath == "sync" && (typeName == "Mutex" || typeName == "RWMutex") {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key := types.ExprString(sel.X)
		switch fn.Name() {
		case "Lock", "RLock":
			held[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	if blockingMethods[pkgPath+"."+typeName][fn.Name()] {
		key, lockPos := anyHeld(held)
		s.p.findingf(s.out, s.rule, call.Pos(),
			"%s.%s blocks in virtual time while %q is locked (Lock at line %d); release the mutex before blocking or the sim can deadlock",
			typeName, fn.Name(), key, s.p.position(lockPos).Line)
		return
	}
	if chain, ok := s.blockers[fn]; ok && fn.Pkg() == s.p.pkg {
		key, lockPos := anyHeld(held)
		s.p.findingf(s.out, s.rule, call.Pos(),
			"%s blocks in virtual time (%s) while %q is locked (Lock at line %d); release the mutex before blocking or the sim can deadlock",
			fn.Name(), chain, key, s.p.position(lockPos).Line)
	}
}

func anyHeld(held map[string]token.Pos) (string, token.Pos) {
	bestKey, bestPos := "", token.NoPos
	for k, p := range held {
		if bestPos == token.NoPos || p < bestPos {
			bestKey, bestPos = k, p
		}
	}
	return bestKey, bestPos
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
