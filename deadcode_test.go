package regcache

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllowlist names the declarations that no main package reaches
// but that stay on purpose, keyed as the gate reports them, each with the
// reason it stays.
var deadcodeAllowlist = map[string]string{
	"regcache/internal/store.(*Store).SetWriteHook":             "fault-injection seam for the crash-consistency tests",
	"regcache/internal/store.(*Store).Sync":                     "durability call: fsync without closing",
	"regcache/internal/sim.(*ResultStore).WithSimulatorVersion": "seam that ages a store for the version-bump tests",
	"regcache/internal/sim.Execute":                             "unmemoized entry the throughput benchmarks time",
}

// TestNoUnreachedDeclarations fails on any package-level declaration or
// method of the module that no main package reaches: code that only tests
// exercise. It type-checks the non-test files of every package with
// go/types and walks references from the roots: main, init and blank
// package-level vars of each main package (cmd/..., examples/...) and of
// perfbench, the benchmark harness, whose own module's tests count as
// roots too. A method counts as reached when its receiver type is reached
// and that type, or a pointer to it, implements an interface in the
// checked packages (the standard library's included) that declares the
// method, since a dynamic call leaves no static reference. Error, Unwrap,
// Is and As count by name alone: package errors asserts them through
// interfaces declared inside its function bodies. A constant in an iota
// block is reached when any member of its block is, because deleting one
// renumbers the rest.
func TestNoUnreachedDeclarations(t *testing.T) {
	l, err := newDeadcodeLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range l.unreached() {
		if _, ok := deadcodeAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		unused = append(unused, d.where+": "+d.key)
	}
	for key := range deadcodeAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s is reached or gone: delete it", key)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d declarations no main package reaches; delete them, move them into the _test.go of their one user, or allowlist a deliberate seam:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

type deadcodePkg struct {
	path   string
	main   bool
	report bool // this module's code; perfbench is only a root
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
}

type deadDecl struct {
	key   string // package path, then name or (*Recv).Method
	where string // file:line
}

type deadcodeLoader struct {
	fset *token.FileSet
	pkgs map[string]*deadcodePkg
	std  types.Importer
}

// newDeadcodeLoader parses and type-checks every package under root.
func newDeadcodeLoader(root string) (*deadcodeLoader, error) {
	l := &deadcodeLoader{fset: token.NewFileSet(), pkgs: map[string]*deadcodePkg{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		perf := rel == "perfbench" || strings.HasPrefix(rel, "perfbench/")
		files := bp.GoFiles
		if perf {
			files = append(files, bp.TestGoFiles...)
		}
		if len(files) == 0 {
			return nil
		}
		p := &deadcodePkg{path: "regcache/" + rel, main: bp.Name == "main", report: !perf}
		for _, f := range files {
			af, err := parser.ParseFile(l.fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		l.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports, err := l.stdExports()
	if err != nil {
		return nil, err
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	for _, p := range l.pkgs {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// stdExports asks the go command, once, for the compiled export data of
// every standard package the parsed files import, directly or not.
func (l *deadcodeLoader) stdExports() (map[string]string, error) {
	imports := map[string]bool{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, s := range f.Imports {
				path, _ := strconv.Unquote(s.Path.Value)
				if _, ok := l.pkgs[path]; !ok {
					imports[path] = true
				}
			}
		}
	}
	args := []string{"list", "-deps", "-export", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}"}
	for path := range imports {
		args = append(args, path)
	}
	// go test puts its own go command first on the PATH.
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// check type-checks p once, after the module packages it imports.
func (l *deadcodeLoader) check(p *deadcodePkg) (*types.Package, error) {
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if dep, ok := l.pkgs[path]; ok {
			return l.check(dep)
		}
		return l.std.Import(path)
	})}
	pkg, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreached walks references from the roots and returns, sorted by key,
// the module's declarations the walk never reaches. A method whose
// receiver type is unreached is left out: deleting the type deletes it.
func (l *deadcodeLoader) unreached() []deadDecl {
	type declSite struct {
		p    *deadcodePkg
		node ast.Node
	}
	site := map[types.Object]declSite{}
	iotaGroup := map[types.Object][]types.Object{}
	var roots []declSite
	live := l.imported()
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || p.main && d.Name.Name == "main") {
						if live[p.path] {
							roots = append(roots, declSite{p, d})
						}
						continue
					}
					site[p.info.Defs[d.Name]] = declSite{p, d}
				case *ast.GenDecl:
					var group []types.Object
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							site[p.info.Defs[s.Name]] = declSite{p, s}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									if live[p.path] {
										roots = append(roots, declSite{p, s})
									}
									continue
								}
								obj := p.info.Defs[n]
								site[obj] = declSite{p, s}
								if d.Tok == token.CONST && usesIota(d) {
									group = append(group, obj)
								}
							}
						}
					}
					for _, obj := range group {
						iotaGroup[obj] = group
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	queue := roots
	var reach func(obj types.Object)
	reach = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		if s, ok := site[obj]; ok {
			queue = append(queue, s)
		}
		for _, m := range iotaGroup[obj] {
			reach(m)
		}
	}
	dynamic := l.dynamicMethods()
	for len(queue) > 0 {
		for len(queue) > 0 {
			s := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(s.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := s.p.info.Uses[n]; obj != nil {
						reach(obj)
					}
				case *ast.SelectorExpr:
					if sel := s.p.info.Selections[n]; sel != nil {
						reach(sel.Obj())
					}
				}
				return true
			})
		}
		// Dynamic calls: a reached type's method that an interface it
		// implements declares.
		for obj := range site {
			if fn, ok := obj.(*types.Func); ok && !reached[fn] {
				if recv := receiverType(fn); recv != nil && reached[recv] && dynamic(fn) {
					reach(fn)
				}
			}
		}
	}

	var dead []deadDecl
	for obj, s := range site {
		if reached[obj] || !s.p.report {
			continue
		}
		key := s.p.path + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := receiverType(fn); recv != nil {
				if !reached[recv] {
					continue
				}
				r := recv.Name()
				if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					r = "(*" + r + ")"
				}
				key = s.p.path + "." + r + "." + fn.Name()
			}
		}
		pos := l.fset.Position(s.node.Pos())
		dead = append(dead, deadDecl{key: key, where: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead
}

// imported returns the module packages some main package imports,
// directly or not, and the main packages themselves.
func (l *deadcodeLoader) imported() map[string]bool {
	live := map[string]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if _, ok := l.pkgs[pkg.Path()]; !ok || live[pkg.Path()] {
			return
		}
		live[pkg.Path()] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		if p.main {
			visit(p.pkg)
		}
	}
	return live
}

// dynamicMethods returns a predicate reporting whether a method may be
// called through an interface: its receiver type T, or *T, implements an
// interface that declares the method, among every interface in the
// checked packages and the packages they import, the standard library's
// included. Error, Unwrap, Is and As hold by name: package errors asserts
// them through unnamed interfaces whose declarations export data omits.
func (l *deadcodeLoader) dynamicMethods() func(fn *types.Func) bool {
	byName := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	byNameOnly := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	return func(fn *types.Func) bool {
		if byNameOnly[fn.Name()] {
			return true
		}
		t := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		for _, it := range byName[fn.Name()] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}
}

// receiverType returns the named type a method is declared on, or nil
// for a plain function.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// usesIota reports whether a const declaration numbers its members with
// iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
