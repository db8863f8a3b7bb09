// Package testonly keeps the product to code a binary runs. It flags a
// function, method, constant, variable or type declared in a non-test
// file of a non-main package when no product code reaches it: every
// reference to it is in a _test.go file, or inside another flagged
// declaration. An exported declaration nothing references at all is
// flagged too; an unexported one is dead, not test-only, and is left
// alone.
//
// Reaching is transitive from the roots: every declaration of a main
// package (cmd/*, examples/*, benchmark), init functions, blank
// declarations (`var _ I = T{}`), methods that satisfy an interface
// (called through it, invisibly to a reference scan; out of scope and
// never flagged), and declarations annotated
//
//	//vfpgavet:ignore testonly -- reason
//
// which the annotation keeps, as a product reference would, together
// with everything they reference. A reference model or fixture that
// several packages' tests share is kept that way, its reason written at
// the declaration; one that one package's tests use belongs in that
// package's _test.go files.
//
// References are collected over every loaded package and keyed by
// package path and name, since a package's objects differ between the
// pass that checks it from source and the passes that import it. The
// verdict is only as wide as the load: run it over ./..., as `make
// vet-analyzers` does. On a subset of the module an export the rest of
// it uses reads as unused, and with -tests=false, which loads no test
// file, so does a test-only declaration.
package testonly

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

// Analyzer is the testonly analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "testonly",
	Doc:       "declarations of non-main packages that only tests (or nothing) use: move them into a _test.go file or delete them",
	RunModule: runModule,
}

// decl is one package-level name, or one method, declared in a non-test
// file of a non-main package.
type decl struct {
	pass     *analysis.Pass
	ident    *ast.Ident
	label    string   // "Ledger.Readback", "Kind", ...
	recv     string   // a method's receiver type key
	exported bool     // the name, not its receiver type, is exported
	root     bool     // kept whatever references it
	refs     []string // keys this declaration references
	from     []string // keys of declarations that reference it
	testRefs int      // references from _test.go files
	live     bool
	flagged  bool
}

func runModule(passes []*analysis.Pass) error {
	decls := map[string]*decl{}
	var order []string
	var rootRefs []string
	satisfies := interfaceMethods(passes)

	for _, pass := range passes {
		if pass.Pkg.Name() == "main" {
			continue
		}
		for _, f := range pass.Files {
			if isTest(pass, f.Pos()) {
				continue
			}
			for _, n := range declare(pass, f, satisfies) {
				if decls[n.key] == nil { // else a second variant of one package
					decls[n.key] = n.decl
					order = append(order, n.key)
				}
			}
		}
	}
	for _, pass := range passes {
		main := pass.Pkg.Name() == "main"
		for _, f := range pass.Files {
			switch {
			case isTest(pass, f.Pos()):
				for _, k := range uses(pass, f, nil) {
					if d := decls[k]; d != nil {
						d.testRefs++
					}
				}
			case main:
				rootRefs = append(rootRefs, uses(pass, f, nil)...)
			}
		}
	}

	for _, k := range order {
		d := decls[k]
		if t := decls[d.recv]; t != nil && t.root {
			d.root = true // an annotated type keeps its methods
		}
		for _, r := range d.refs {
			if t := decls[r]; t != nil && r != k {
				t.from = append(t.from, k)
			}
		}
		if d.root {
			rootRefs = append(rootRefs, k)
		}
	}
	markLive(decls, rootRefs)

	// Flag what no root reaches: exported names outright, unexported ones
	// once a test or a flagged declaration references them.
	for changed := true; changed; {
		changed = false
		for _, k := range order {
			d := decls[k]
			if d.live || d.flagged {
				continue
			}
			if d.exported || d.testRefs > 0 || anyFlagged(decls, d.from) {
				d.flagged, changed = true, true
			}
		}
	}
	for _, k := range order {
		if d := decls[k]; d.flagged {
			report(decls, d)
		}
	}
	return nil
}

func markLive(decls map[string]*decl, work []string) {
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		d := decls[k]
		if d == nil || d.live {
			continue
		}
		d.live = true
		work = append(work, d.refs...)
	}
}

func anyFlagged(decls map[string]*decl, keys []string) bool {
	for _, k := range keys {
		if decls[k].flagged {
			return true
		}
	}
	return false
}

func report(decls map[string]*decl, d *decl) {
	var via []string
	for _, k := range d.from {
		if f := decls[k]; f.flagged && f != d {
			via = append(via, f.label)
		}
	}
	slices.Sort(via)
	switch {
	case len(via) > 0:
		d.pass.Reportf(d.ident.Pos(), "%s is used only by tests and by test-only %s", d.label, strings.Join(slices.Compact(via), ", "))
	case d.testRefs > 0:
		d.pass.Reportf(d.ident.Pos(), "%s is used only by tests: move it into a _test.go file or delete it", d.label)
	default:
		d.pass.Reportf(d.ident.Pos(), "%s is never used: delete it", d.label)
	}
}

func isTest(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// keyed is a declaration with its key.
type keyed struct {
	key string
	*decl
}

// declare lists the declarations of one non-test file.
func declare(pass *analysis.Pass, f *ast.File, satisfies map[string]bool) []keyed {
	var out []keyed
	add := func(id *ast.Ident, body ast.Node, skip ast.Node, root bool) *decl {
		k := key(pass.Info.Defs[id])
		if id.Name == "_" {
			// Blank: in no scope, so keyed by position; a root.
			k = fmt.Sprintf("%s._%d", pass.Pkg.Path(), id.Pos())
		}
		if k == "" {
			return nil
		}
		d := &decl{
			pass:     pass,
			ident:    id,
			label:    strings.TrimPrefix(k, pass.Pkg.Path()+"."),
			exported: id.IsExported(),
			root:     root || id.Name == "_" || pass.Ignored(id.Pos()),
			refs:     uses(pass, body, skip),
		}
		out = append(out, keyed{k, d})
		return d
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d, nil, d.Name.Name == "init")
				continue
			}
			k := key(pass.Info.Defs[d.Name])
			// The receiver names its type without using it.
			if m := add(d.Name, d, d.Recv, satisfies[k]); m != nil {
				m.recv = k[:strings.LastIndexByte(k, '.')]
			}
		case *ast.GenDecl:
			first := len(out)
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec, nil, false)
				case *ast.ValueSpec:
					// A constant in a group may take its type and value
					// from the spec above it: each name depends on the
					// whole group.
					var body ast.Node = spec
					if d.Tok == token.CONST {
						body = d
					}
					for _, id := range spec.Names {
						add(id, body, nil, false)
					}
				}
			}
			if d.Tok == token.CONST && usesIota(pass, d) {
				// An enumerator lives with its enumeration: deleting
				// one renumbers the rest.
				group := out[first:]
				for i := range group {
					for _, g := range group {
						group[i].refs = append(group[i].refs, g.key)
					}
				}
			}
		}
	}
	return out
}

func usesIota(pass *analysis.Pass, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// uses lists the keys of the declarations n references, skipping the
// subtree skip.
func uses(pass *analysis.Pass, n, skip ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if n == skip && skip != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if k := key(pass.Info.Uses[id]); k != "" {
				out = append(out, k)
			}
		}
		return true
	})
	return out
}

// key names a package-level object or a method of a named type by
// package path, receiver type and name; anything else has no key.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := astq.Named(recv.Type())
			if named == nil {
				return ""
			}
			return path + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// interfaceMethods returns the keys of the methods that satisfy an
// interface: one declared in the module's non-test files, or in any
// package it imports, or the predeclared error. Signatures are compared
// as strings qualified by package path: a named type differs between
// the pass that checks its package and a pass that imports it.
func interfaceMethods(passes []*analysis.Pass) map[string]bool {
	var ifaces [][]method
	seenPkg := map[string]bool{}
	addIface := func(t types.Type) {
		it, ok := t.(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		ms := make([]method, it.NumMethods())
		for i := range ms {
			ms[i] = method{it.Method(i).Name(), signature(it.Method(i))}
		}
		ifaces = append(ifaces, ms)
	}
	addScope := func(pass *analysis.Pass, scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || (pass != nil && isTest(pass, tn.Pos())) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			addIface(tn.Type().Underlying())
		}
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p.Path()] {
			return
		}
		seenPkg[p.Path()] = true
		addScope(nil, p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying())
	for _, pass := range passes {
		addScope(pass, pass.Pkg.Scope())
		for _, q := range pass.Pkg.Imports() {
			walk(q)
		}
		// Interface literals: `x.(interface{ Frag() core.FragStats })`.
		for e, tv := range pass.Info.Types {
			if tv.Type != nil && !isTest(pass, e.Pos()) {
				addIface(tv.Type)
			}
		}
	}

	out := map[string]bool{}
	for _, pass := range passes {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			// The pointer's method set holds the value's, and methods
			// promoted from embedded types with the method that runs.
			mset := types.NewMethodSet(types.NewPointer(named))
			if mset.Len() == 0 {
				continue
			}
			has := make(map[string]*types.Func, mset.Len())
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				has[fn.Name()] = fn
			}
		next:
			for _, it := range ifaces {
				for _, m := range it {
					if fn := has[m.name]; fn == nil || signature(fn) != m.sig {
						continue next
					}
				}
				for _, m := range it {
					out[key(has[m.name])] = true
				}
			}
		}
	}
	return out
}

// method is one interface method: its name and signature.
type method struct{ name, sig string }

// signature renders fn's parameter and result types, receiver and
// names omitted, with every named type qualified by its package path.
func signature(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qualify := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qualify))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
