package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// refDocs are the documents whose code spans may not name deleted code.
var refDocs = []string{"DESIGN.md", "README.md"}

// pkgDecls is what one package name declares across the module: its
// top-level identifiers, and for each type its methods and struct
// fields. Test files of the package itself count (export_test.go seams
// such as sysns.UseFullRecompute are documented API of the tests).
type pkgDecls struct {
	top     map[string]bool
	types   map[string]bool
	members map[string]map[string]bool // type -> method and field names
}

// qualifiedRef matches a package-qualified identifier inside a code
// span: pkg.Name, optionally followed by .Member, or pkg.(*T).Method /
// pkg.(T).Method. The name after the qualifier must be exported, so
// dotted lowercase names (telemetry counters such as
// sysns.bounds_flushes, file names such as sysns.go) are not
// identifiers. A qualifier preceded by a letter, digit, dot, slash or
// dash is part of a path or a longer selector and is skipped too.
var qualifiedRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.(?:\(\*?([A-Z]\w*)\)\.(\w+)|([A-Z]\w*)(?:\.(\w+))?)`)

// codeSpan matches one inline code span.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// checkDocRefs reports every package-qualified identifier in a code
// span of docs (paths relative to root) whose package is one of the
// module's and that resolves to no declaration in it. Qualifiers that
// name no module package (the standard library's atomic.Pointer or
// testing.B) are skipped, as is package main.
func checkDocRefs(root string, docs []string) []string {
	decls := moduleDecls(root)
	var out []string
	for _, doc := range docs {
		path := filepath.Join(root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range qualifiedRef.FindAllStringSubmatch(span[1], -1) {
					d := decls[m[1]]
					if d == nil {
						continue
					}
					if !d.resolve(m[2], m[3], m[4], m[5]) {
						ref := m[0][strings.Index(m[0], m[1]+"."):]
						out = append(out, fmt.Sprintf("%s:%d: `%s` names no declaration in the module", path, i+1, ref))
					}
				}
			}
		}
	}
	return out
}

// resolve reports whether a match's selector names a declaration: the
// method recv.method, or name with an optional member (a method or
// field when name is a type; a member of a func, var or const is not
// checked).
func (d *pkgDecls) resolve(recv, method, name, member string) bool {
	if recv != "" {
		return d.members[recv][method]
	}
	if !d.top[name] {
		return false
	}
	return member == "" || !d.types[name] || d.members[name][member]
}

// moduleDecls parses every package under root, test files included, and
// collects what each package name declares.
func moduleDecls(root string) map[string]*pkgDecls {
	decls := map[string]*pkgDecls{}
	for _, dir := range packageDirs(root) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			continue // checkPackage reports parse errors
		}
		for name, pkg := range pkgs {
			if name == "main" || strings.HasSuffix(name, "_test") {
				continue
			}
			d := decls[name]
			if d == nil {
				d = &pkgDecls{top: map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{}}
				decls[name] = d
			}
			for _, f := range pkg.Files {
				d.add(f)
			}
		}
	}
	return decls
}

// add records one file's top-level declarations.
func (d *pkgDecls) add(f *ast.File) {
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch x := decl.(type) {
		case *ast.FuncDecl:
			if x.Recv == nil {
				d.top[x.Name.Name] = true
			} else if typ := recvName(x.Recv); typ != "" {
				member(typ, x.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					d.top[s.Name.Name], d.types[s.Name.Name] = true, true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								member(s.Name.Name, n.Name)
							}
							if len(fld.Names) == 0 { // embedded: named by its type
								if n := typeName(fld.Type); n != "" {
									member(s.Name.Name, n)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						d.top[n.Name] = true
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method receiver.
func recvName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	return typeName(recv.List[0].Type)
}

// typeName returns the name of a (possibly pointer, generic or
// package-qualified) type expression.
func typeName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.SelectorExpr:
			return tt.Sel.Name
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
