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
// option sets, and the shard driver's plan.
var knobStructs = []struct {
	dir     string // package directory, relative to the module root
	pkg     string // the name its importers qualify it by
	structs []string
}{
	{"internal/core", "core", []string{"SRS", "SSP", "SSN", "LWS", "LSS", "QLCC", "QLAC", "GroupedSRS", "GroupedLSS"}},
	{"internal/service", "service", []string{"Options", "CoordinatorOptions"}},
	{"internal/shard", "shard", []string{"Plan"}},
}

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
// counts for every struct of the row that has a field of that name.)
func TestEveryOptionFieldHasASetter(t *testing.T) {
	type file struct {
		dir string
		ast *ast.File
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
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
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
				inPkg := f.dir == row.dir
				if inPkg {
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
						switch tx := n.Type.(type) {
						case *ast.Ident:
							if inPkg {
								typ = tx.Name
							}
						case *ast.SelectorExpr:
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
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								set["*."+sel.Sel.Name] = true
							}
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
	for f := range testSeams {
		if !seamDeclared[f] {
			t.Errorf("test seam %s is no unset option field of a knob struct: drop the exemption", f)
		}
	}
}
