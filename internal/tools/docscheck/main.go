// Command docscheck enforces the repository's documentation contract
// (`make docs`):
//
//  1. every Go package in the module must carry a package comment on at
//     least one of its files, and
//  2. the packages named in strictPkgs — the public API plus the
//     subsystems at the heart of the paper reproduction — must document
//     every exported symbol: functions, methods on exported types,
//     type declarations, and each exported const/var (a comment on the
//     enclosing grouped declaration covers all of its specs), and
//  3. every package-qualified identifier in a code span of DESIGN.md or
//     README.md whose package is one of the module's (sysns.Monitor,
//     cfs.(*Scheduler).Tick, sysns.Monitor.byID) must name a declaration
//     in the module, so the documents cannot describe deleted code
//     (refs.go).
//
// It walks the source tree with go/parser rather than go/doc because
// go/doc merges grouped declarations and drops per-spec comments, which
// would let an undocumented constant hide inside a documented block.
// Violations are printed one per line as file:line: message and the
// exit status is non-zero, so the target works as a CI gate.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictPkgs are the directories (relative to the module root) whose
// exported symbols must all be documented, not just the package itself.
var strictPkgs = map[string]bool{
	".":                   true, // package arv, the public API
	"internal/sysns":      true,
	"internal/faults":     true,
	"internal/autoscaler": true,
	"internal/cfs":        true,
	"internal/cgroups":    true,
	"internal/scalebench": true,
	"internal/sysfs":      true,
	"internal/fsd":        true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	for _, dir := range packageDirs(root) {
		violations = append(violations, checkPackage(dir)...)
	}
	violations = append(violations, checkDocRefs(root, refDocs)...)
	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docscheck: all packages documented, every documented identifier resolves")
}

// packageDirs returns every directory under root that contains at least
// one non-test Go file, skipping testdata and hidden directories.
func packageDirs(root string) []string {
	seen := map[string]bool{}
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// checkPackage parses one package directory and returns its violations.
func checkPackage(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		if !hasPackageComment(pkg) {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		if strictPkgs[filepath.ToSlash(dir)] {
			out = append(out, checkExported(fset, pkg)...)
		}
	}
	return out
}

// hasPackageComment reports whether any file of the package carries a
// doc comment on its package clause.
func hasPackageComment(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// checkExported flags every exported top-level symbol that lacks a doc
// comment. For grouped const/var/type declarations a comment on either
// the group or the individual spec counts; a trailing line comment on
// the spec counts too (the idiom used for enumerated constants).
func checkExported(fset *token.FileSet, pkg *ast.Package) []string {
	var out []string
	flag := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s is undocumented", p.Filename, p.Line, kind, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || hasText(d.Doc) {
					continue
				}
				// Methods on unexported receivers are not part of the
				// package's exported surface.
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				flag(d.Pos(), kind, d.Name.Name)
			case *ast.GenDecl:
				groupDoc := hasText(d.Doc)
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && !hasText(s.Doc) {
							flag(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						documented := groupDoc || hasText(s.Doc) || hasText(s.Comment)
						for _, n := range s.Names {
							if n.IsExported() && !documented {
								flag(n.Pos(), d.Tok.String(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool { return token.IsExported(recvName(recv)) }

// hasText reports whether a comment group contains actual prose.
func hasText(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}
