package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// exportKey names a declaration the same way in every type-check of
// its package: "path.Name" for a function or type, "path.Type.Name"
// for a method or struct field. The loader type-checks each package on
// its own, so the object a caller resolves through the importer is a
// different types.Object than the declaration; only the key matches.
type exportKey string

// deadExport returns the whole-program analyzer that flags an exported
// function, method, type or struct field of a library package that no
// non-test file outside that package references; doc.go lists what it
// exempts and why.
func deadExport() *Analyzer {
	a := &Analyzer{
		Name:      "deadexport",
		Doc:       "exported name with no caller outside its package; unexport it, move it into a test, or delete it",
		skipTests: true,
	}
	a.runProgram = func(pkgs []*Package) []Finding {
		d := newDeadScan(pkgs)
		d.references()
		return d.findings(a.Name)
	}
	return a
}

type deadScan struct {
	pkgs []*Package
	// libs holds the import paths of library (non-main) packages: the
	// only ones whose exported names another package can reference.
	libs map[string]bool
	// fields maps each field of a library package's named struct
	// types, from either type-check, to its key.
	fields map[*types.Var]exportKey
	// ifaces indexes the interfaces the program uses by method name.
	ifaces  map[string][]*types.Interface
	used    map[exportKey]bool
	reached map[exportKey]bool
}

func newDeadScan(pkgs []*Package) *deadScan {
	d := &deadScan{
		pkgs:    pkgs,
		libs:    make(map[string]bool),
		fields:  make(map[*types.Var]exportKey),
		ifaces:  make(map[string][]*types.Interface),
		used:    make(map[exportKey]bool),
		reached: make(map[exportKey]bool),
	}
	for _, p := range pkgs {
		if p.pkg.Name() != "main" {
			d.libs[p.path] = true
		}
	}
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			d.ifaces[name] = append(d.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// The errors package asserts these on a wrapped error without
	// naming them.
	errT, boolT := types.Universe.Lookup("error").Type(), types.Typ[types.Bool]
	addIface(oneMethod("Unwrap", nil, errT))
	addIface(oneMethod("Unwrap", nil, types.NewSlice(errT)))
	addIface(oneMethod("Is", errT, boolT))
	addIface(oneMethod("As", types.Universe.Lookup("any").Type(), boolT))
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if d.libs[tp.Path()] {
			indexFields(tp, d.fields)
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
		// The interfaces the program uses: those its own packages and
		// their direct imports declare, and every interface type one of
		// its expressions has.
		for _, tp := range append([]*types.Package{p.pkg}, p.pkg.Imports()...) {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && (tp == p.pkg || tn.Exported()) {
					addIface(tn.Type())
				}
			}
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return d
}

// oneMethod returns interface{ name(param) result }, without the
// parameter when param is nil.
func oneMethod(name string, param, result types.Type) *types.Interface {
	var params *types.Tuple
	if param != nil {
		params = types.NewTuple(types.NewParam(token.NoPos, nil, "", param))
	}
	sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// indexFields records the key of every field of tp's named struct
// types.
func indexFields(tp *types.Package, out map[*types.Var]exportKey) {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			out[st.Field(i)] = exportKey(tp.Path() + "." + name + "." + st.Field(i).Name())
		}
	}
}

// references marks every library name a non-test file of another
// package uses. A struct handed to an encoding/* function has its
// fields read by reflection, from whichever package hands it over.
func (d *deadScan) references() {
	encoded := make(map[*types.Named]bool)
	for _, p := range d.pkgs {
		for _, f := range p.files {
			if p.isTestFile(p.fset.Position(f.Pos()).Filename) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := funcObj(p.info, n); fn != nil && fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "encoding/") {
						for _, arg := range n.Args {
							d.encode(p.info.TypeOf(arg), encoded)
						}
					}
				case *ast.Ident:
					obj := p.info.Uses[n]
					if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == p.path || !d.libs[obj.Pkg().Path()] {
						return true
					}
					if k, ok := d.key(obj); ok {
						d.used[k] = true
					}
				}
				return true
			})
		}
	}
}

// encode marks the fields of every struct a value of type t holds as
// used.
func (d *deadScan) encode(t types.Type, seen map[*types.Named]bool) {
	switch t := types.Unalias(t).(type) {
	case interface{ Elem() types.Type }: // pointer, slice, array, map, chan
		d.encode(t.Elem(), seen)
	case *types.Named:
		st, ok := t.Underlying().(*types.Struct)
		if !ok || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < st.NumFields(); i++ {
			if k, ok := d.fields[st.Field(i).Origin()]; ok {
				d.used[k] = true
			}
			d.encode(st.Field(i).Type(), seen)
		}
	}
}

func (d *deadScan) key(obj types.Object) (exportKey, bool) {
	switch obj := obj.(type) {
	case *types.Func:
		obj = obj.Origin()
		if path, recv := recvNamed(obj); recv != "" {
			return exportKey(path + "." + recv + "." + obj.Name()), true
		}
		return exportKey(obj.Pkg().Path() + "." + obj.Name()), true
	case *types.TypeName:
		return exportKey(obj.Pkg().Path() + "." + obj.Name()), true
	case *types.Var:
		k, ok := d.fields[obj.Origin()]
		return k, ok
	}
	return "", false
}

// reach marks the named types t mentions. It does not descend into a
// named type's own fields: each of those is checked by itself.
func (d *deadScan) reach(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil {
			d.reached[exportKey(obj.Pkg().Path()+"."+obj.Name())] = true
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			d.reach(t.TypeArgs().At(i))
		}
	case *types.Map:
		d.reach(t.Key())
		d.reach(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		d.reach(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				d.reach(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			d.reach(t.Field(i).Type())
		}
	}
}

// implementsUsed reports whether method fn belongs to an interface
// the program uses that its receiver's type implements. An interface
// reached through an import is the importer's copy, which the
// receiver's own signatures name, so types.Implements can compare them.
func (d *deadScan) implementsUsed(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range d.ifaces[fn.Name()] {
		if types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// findings reports the library packages' unreferenced exported names.
// Functions, methods and fields go first: the types their signatures
// and field types mention are reached, whether the member is referenced
// or not. A type only a dead member mentions is left to be reported
// once that member is resolved, and a suppressed member keeps its
// types.
func (d *deadScan) findings(rule string) []Finding {
	type decl struct {
		p    *Package
		id   *ast.Ident
		kind string
		name string
		key  exportKey
	}
	var members, typs []decl
	for _, p := range d.pkgs {
		if !d.libs[p.path] {
			continue
		}
		for _, f := range p.files {
			if p.isTestFile(p.fset.Position(f.Pos()).Filename) {
				continue
			}
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.info.Defs[dl.Name].(*types.Func)
					if !ok || !fn.Exported() {
						continue
					}
					d.reach(fn.Type())
					k, _ := d.key(fn)
					if d.used[k] {
						continue
					}
					kind, name := "function", fn.Name()
					if _, recv := recvNamed(fn); recv != "" {
						if d.implementsUsed(fn) {
							continue
						}
						kind, name = "method", recv+"."+fn.Name()
					}
					members = append(members, decl{p, dl.Name, kind, name, k})
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if ts.Name.IsExported() {
							typs = append(typs, decl{p, ts.Name, "type", ts.Name.Name, exportKey(p.path + "." + ts.Name.Name)})
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								v, ok := p.info.Defs[id].(*types.Var)
								if !ok || !id.IsExported() {
									continue
								}
								d.reach(v.Type())
								if fld.Tag == nil && !d.used[d.fields[v]] {
									members = append(members, decl{p, id, "field", ts.Name.Name + "." + id.Name, d.fields[v]})
								}
							}
						}
					}
				}
			}
		}
	}
	var out []Finding
	for _, dc := range append(members, typs...) {
		if dc.kind == "type" && (d.used[dc.key] || d.reached[dc.key]) {
			continue
		}
		dc.p.findingf(&out, rule, dc.id.Pos(),
			"exported %s %s has no caller outside package %s; unexport it, move it into a test, or delete it", dc.kind, dc.name, dc.p.pkg.Name())
	}
	return out
}
