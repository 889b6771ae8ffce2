// Command doclint is the repository's godoc lint: it fails when an exported
// declaration in the given packages lacks a doc comment (the revive
// "exported" rule, without the dependency). The operator-pipeline and
// adaptive layers document every exported symbol with its paper
// counterpart; CI runs this tool so that invariant cannot rot:
//
//	go run ./cmd/doclint ./internal/exec ./internal/adaptive
//
// It also fails when a given package under internal/ exports an identifier
// that nothing outside that package's own tests references (see
// unreferenced). Run it from the module root. Exit status is 1 when any
// symbol is undocumented or unreferenced, with one line per finding
// (file:line: symbol).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <package-dir> [package-dir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		dir = strings.TrimPrefix(dir, "./")
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				bad += lintFile(fset, filepath.ToSlash(name), file)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported symbol(s)\n", bad)
	}
	unused, err := unreferenced(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	if unused > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported symbol(s) nothing outside their package's tests references\n", unused)
	}
	if bad+unused > 0 {
		os.Exit(1)
	}
}

// lintFile reports every exported top-level declaration of the file that
// carries no doc comment.
func lintFile(fset *token.FileSet, name string, file *ast.File) int {
	bad := 0
	report := func(pos token.Pos, symbol string) {
		fmt.Printf("%s: exported %s has no doc comment\n", fset.Position(pos), symbol)
		bad++
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				report(d.Pos(), d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types need no doc comment — godoc hides them).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}
