package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobStructs are the option-carrying structs of the module: internal/core's
// nine method types (the oracles have no fields), the serving layer's two
// option sets, the shard driver's plan, and the SDK's tracer options. The
// SDK's other knobs are its With* constructors, checked as calls.
var knobStructs = []struct {
	dir     string // package directory, relative to the module root
	pkg     string // the name its importers qualify it by
	structs []string
}{
	{"internal/core", "core", []string{"SRS", "SSP", "SSN", "LWS", "LSS", "QLCC", "QLAC", "GroupedSRS", "GroupedLSS"}},
	{"internal/service", "service", []string{"Options", "CoordinatorOptions"}},
	{"internal/shard", "shard", []string{"Plan"}},
	{sdkPkg, sdkPkg, []string{"TracerOptions"}},
}

// sdkPkg is the public SDK, whose functional options are exported With*
// constructors rather than struct fields.
const sdkPkg = "lsample"

// testSeams are the option fields only tests set, each kept for a reason a
// test cannot get around by other means.
var testSeams = map[string]string{
	"CoordinatorOptions.Client": "tests put an in-process transport under the coordinator to script worker faults",
	"Options.MaxUploadBytes":    "tests lower the upload bound to reach 413 without 64 MiB bodies",
}

// TestEveryOptionFieldHasASetter keeps unused knobs from growing back: every
// exported field of a knob struct must be a composite-literal key or an
// assignment target in some non-test file of the module outside its own
// package and outside examples/ — a caller, a command, a figure or a bench
// probe. Tests and examples are not users; a default filled in by the
// declaring package is not a setter. Only testSeams are exempt, and only
// while nothing else sets them. (An assignment to x.Field is untyped: it
// counts for every struct of the row that has a field of that name, unless
// varTypes knows x's type.) By the
// same rule every exported lsample.With* option constructor must be called
// from some non-test file outside lsample/ and examples/.
func TestEveryOptionFieldHasASetter(t *testing.T) {
	type file struct {
		dir  string
		ast  *ast.File
		vars map[string]string // varTypes
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n != "." && (strings.HasPrefix(n, ".") || n == "testdata" || path == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f, varTypes(f)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seamDeclared := map[string]bool{}
	for _, row := range knobStructs {
		t.Run(row.pkg, func(t *testing.T) {
			wanted := map[string]bool{}
			for _, s := range row.structs {
				wanted[s] = true
			}
			declared := map[string]bool{} // "LSS.Strata"
			set := map[string]bool{}      // "LSS.Strata", or "*.Strata" for an untyped assignment
			for _, f := range files {
				if f.dir == row.dir {
					ast.Inspect(f.ast, func(n ast.Node) bool {
						ts, ok := n.(*ast.TypeSpec)
						if !ok || !wanted[ts.Name.Name] {
							return true
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, name := range fld.Names {
									if name.IsExported() {
										declared[ts.Name.Name+"."+name.Name] = true
									}
								}
							}
						}
						return false
					})
					continue
				}
				ast.Inspect(f.ast, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := ""
						if tx, ok := n.Type.(*ast.SelectorExpr); ok {
							if pkg, ok := tx.X.(*ast.Ident); ok && pkg.Name == row.pkg {
								typ = tx.Sel.Name
							}
						}
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok && wanted[typ] {
								if key, ok := kv.Key.(*ast.Ident); ok {
									set[typ+"."+key.Name] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							sel, ok := lhs.(*ast.SelectorExpr)
							if !ok {
								continue
							}
							if x, ok := sel.X.(*ast.Ident); ok && f.vars[x.Name] != "" {
								if pkg, typ, ok := strings.Cut(f.vars[x.Name], "."); ok && pkg == row.pkg {
									set[typ+"."+sel.Sel.Name] = true
								}
								continue
							}
							set["*."+sel.Sel.Name] = true
						}
					}
					return true
				})
			}
			if len(declared) == 0 {
				t.Fatalf("found no fields of %v in %s", row.structs, row.dir)
			}
			var unset []string
			for f := range declared {
				isSet := set[f] || set["*."+f[strings.IndexByte(f, '.')+1:]]
				_, seam := testSeams[f]
				switch {
				case seam && isSet:
					t.Errorf("%s is exempt as a test seam, yet a non-test file sets it: drop the exemption", f)
				case seam:
					seamDeclared[f] = true
				case !isSet:
					unset = append(unset, f)
				}
			}
			sort.Strings(unset)
			if len(unset) > 0 {
				t.Errorf("%d of %d option fields are set by no non-test file outside %s and examples/: %v",
					len(unset), len(declared), row.dir, unset)
			}
		})
	}
	t.Run(sdkPkg+".With", func(t *testing.T) {
		declared := map[string]bool{}
		called := map[string]bool{}
		for _, f := range files {
			if f.dir == sdkPkg {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
						declared[fd.Name.Name] = true
					}
				}
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == sdkPkg {
							called[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
		if len(declared) == 0 {
			t.Fatalf("found no With* option constructors in %s", sdkPkg)
		}
		var uncalled []string
		for name := range declared {
			if !called[name] {
				uncalled = append(uncalled, name)
			}
		}
		sort.Strings(uncalled)
		if len(uncalled) > 0 {
			t.Errorf("%d of %d option constructors are called by no non-test file outside %s and examples/: %v",
				len(uncalled), len(declared), sdkPkg, uncalled)
		}
	})
	for f := range testSeams {
		if !seamDeclared[f] {
			t.Errorf("test seam %s is no unset option field of a knob struct: drop the exemption", f)
		}
	}
}

// varTypes maps each identifier a file declares with a written struct type —
// a receiver or parameter, a typed var, or x := T{…} / &T{…} — to that type,
// "pkg.T" or "T" for the file's own package, so an assignment x.Field = …
// counts for that type alone. A name the file declares with two types, or
// with one that is no named type, maps to "": an assignment through it
// stays untyped.
func varTypes(f *ast.File) map[string]string {
	types := map[string]string{}
	bind := func(name *ast.Ident, typ ast.Expr) {
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		s := ""
		switch t := typ.(type) {
		case *ast.Ident:
			s = t.Name
		case *ast.SelectorExpr:
			if pkg, ok := t.X.(*ast.Ident); ok {
				s = pkg.Name + "." + t.Sel.Name
			}
		}
		if prev, seen := types[name.Name]; seen && prev != s {
			s = ""
		}
		types[name.Name] = s
	}
	bindFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				bind(name, fld.Type)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			bindFields(n.Recv)
		case *ast.FuncType:
			bindFields(n.Params)
			bindFields(n.Results)
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, name := range n.Names {
					bind(name, n.Type)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
					rhs = u.X
				}
				if cl, ok := rhs.(*ast.CompositeLit); ok {
					if name, ok := n.Lhs[i].(*ast.Ident); ok {
						bind(name, cl.Type)
					}
				}
			}
		}
		return true
	})
	return types
}
