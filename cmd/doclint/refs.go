package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// pkg is one directory of Go files, split the way go test builds it.
type pkg struct {
	path                 string
	files, tests, xtests []*ast.File // non-test, in-package test, external test
	types                *types.Package
}

// loader type-checks every package of the module rooted at the current
// directory, and of any module nested in it (such as bench), from source,
// and records which declarations are referenced from where.
type loader struct {
	fset *token.FileSet
	mod  string // the import path of the module at the current directory
	pkgs map[string]*pkg
	std  types.Importer
	used map[token.Pos]bool // declarations referenced from a counting file
}

// unreferenced reports every exported function, method, constant, variable
// and type declared in the given directories under internal/ that no
// non-test file references and no test file of another package references:
// code only its own package's tests reach belongs in those tests. Methods
// that satisfy an interface are exempt, since calls through the interface
// name no method.
func unreferenced(dirs []string) (int, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, used: map[token.Pos]bool{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.load(); err != nil {
		return 0, err
	}
	for _, p := range l.pkgs {
		l.check(p)
	}
	for _, p := range l.pkgs {
		if len(p.tests) > 0 {
			l.record(p.path, p.files, p.tests)
		}
		if len(p.xtests) > 0 {
			l.record(p.path, nil, p.xtests)
		}
	}
	ifaces := l.interfaces()
	bad := 0
	for _, dir := range dirs {
		dir = filepath.ToSlash(filepath.Clean(dir))
		if !strings.HasPrefix(dir+"/", "internal/") {
			continue
		}
		p := l.pkgs[l.mod+"/"+dir]
		if p == nil || p.types == nil {
			return bad, fmt.Errorf("no package in %s", dir)
		}
		report := func(obj types.Object, name string) {
			fmt.Printf("%s: exported %s is referenced only by its own package's tests, if at all\n", l.fset.Position(obj.Pos()), name)
			bad++
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !l.used[obj.Pos()] {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			named, _ := obj.Type().(*types.Named)
			if !ok || tn.IsAlias() || named == nil {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.used[m.Pos()] && !satisfies(named, m.Name(), ifaces) {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	return bad, nil
}

// load parses every package of the module tree, each module's packages
// under its own import path.
func (l *loader) load() error {
	mods := map[string]string{} // module root dir -> module path
	defer func() { l.mod = mods["."] }()
	return filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
			return filepath.SkipDir
		}
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					mods[dir] = f[1]
				}
			}
		}
		root := dir
		for mods[root] == "" && root != "." {
			root = filepath.Dir(root)
		}
		path := mods[root]
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &pkg{path: path}
		for _, e := range entries {
			name := e.Name()
			if ok, _ := build.Default.MatchFile(dir, name); e.IsDir() || !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
			l.pkgs[path] = p
		}
		return nil
	})
}

// Import resolves the module's packages to their non-test type-check and
// everything else to the standard library, checked from source.
func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return l.check(p), nil
	}
	return l.std.Import(path)
}

// check type-checks a package's non-test files once; every reference they
// make counts.
func (l *loader) check(p *pkg) *types.Package {
	if p.types == nil && len(p.files) > 0 {
		p.types = l.record(p.path, nil, p.files)
	}
	return p.types
}

// record type-checks files on top of base and marks what they reference.
// A file of base's package counts in full; a test file counts only for
// declarations outside the package it tests.
func (l *loader) record(path string, base, files []*ast.File) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	checkPath := path
	if len(files) > 0 && strings.HasSuffix(files[0].Name.Name, "_test") {
		checkPath += "_test"
	}
	// Keep going past type errors: a test package checked against the
	// non-test build of its imports can miss an identifier an
	// export_test.go file declares, and every other use still resolves.
	conf := types.Config{Importer: l, Error: func(error) {}}
	tp, _ := conf.Check(checkPath, l.fset, append(append([]*ast.File(nil), base...), files...), info)
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil {
			continue
		}
		isTest := strings.HasSuffix(l.fset.Position(id.Pos()).Filename, "_test.go")
		if !isTest || obj.Pkg().Path() != path {
			l.used[obj.Pos()] = true
		}
	}
	return tp
}

// interfaces lists every named interface the module and its imports
// declare, by method name.
func (l *loader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{
		"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			named, ok := tp.Scope().Lookup(name).Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
	}
	return byName
}

// satisfies reports whether T or *T implements an interface that has a
// method of the given name.
func satisfies(t *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[method] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
