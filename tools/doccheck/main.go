// Command doccheck fails the build when an exported symbol of a package
// lacks a doc comment or leaks an internal/ type. The public SDK is
// documentation-first: every exported type, function, method, exported
// struct field, interface method, and exported var/const must carry a
// comment, so godoc (and the README's pointers into it) never dead-ends on
// a bare name. And it must stay consumable without importing internal
// packages: a *dataset.Table in an exported signature would force callers
// through internal paths and freeze internals into the compatibility
// surface.
//
// The check is syntactic: for every non-test file it walks exported
// declarations and reports the ones whose Doc is empty, and the function
// and method signatures, exported struct fields and embeds, interface
// methods, type definitions and exported var/const types that select from
// one of the file's repro/internal/... imports. Grouped var/const specs
// inherit the group comment; a field list with one comment per line passes
// via line comments. Unexported fields and function bodies may use internal
// packages freely; that is the point of the wrapper types.
//
// A package of functional options documents them in one place, the knob
// table of its package comment (tab-indented rows that open "WithName("). The
// table must list exactly the exported With* constructors: an option
// without a row cannot land undocumented, and a row whose option is gone
// cannot linger.
//
// A document may also name identifiers that no longer exist. Two checks of
// that kind. With -idents, every backticked `pkg.Ident` or `Type.Member` in
// the listed documents whose pkg or Type this module declares must still
// resolve against the module's source (go/parser over the tree under the
// working directory): a top-level name of a package, a method or field of a
// type — promoted ones through embedded structs included. Names of other
// modules' packages, all-lower-case or snake_case names after a package
// (spans and ledger rows are named shard.census, lsample.estimate.learn_ms)
// and file names (plan.go) are not identifiers of this module and are
// skipped. With -op-doc and -op-decl, every op named in the document's
// shard-op table (the markdown table with an "op" column; the first
// backticked word of that cell) must be the value of an Op* string constant
// in the protocol's source file, so the table cannot keep a row for an op the
// protocol dropped.
//
// Usage: go run ./tools/doccheck [-idents ARCHITECTURE.md,README.md,lsample/doc.go]
// [-op-doc ARCHITECTURE.md -op-decl internal/shard/protocol.go] [package dirs...]  (default: lsample)
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	opDoc := flag.String("op-doc", "", "markdown `file` whose shard-op table is checked against -op-decl")
	opDecl := flag.String("op-decl", "", "Go `file` declaring the shard ops as Op* string constants")
	idents := flag.String("idents", "", "comma-separated `files` whose backticked pkg.Ident / Type.Member names must resolve")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"lsample"}
	}
	bad := 0
	if *idents != "" {
		stale, err := checkIdents(strings.Split(*idents, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range stale {
			fmt.Fprintf(os.Stderr, "doccheck: %s\n", m)
		}
		bad += len(stale)
	}
	if *opDoc != "" {
		stale, err := checkOpTable(*opDoc, *opDecl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range stale {
			fmt.Fprintf(os.Stderr, "doccheck: %s\n", m)
		}
		bad += len(stale)
	}
	for _, dir := range dirs {
		missing, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "doccheck: %s\n", m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d documentation gap(s) or internal leak(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("doccheck: every exported symbol is documented and free of internal/ types, the knob table lists every option and the documents name nothing stale")
}

// index is what a module's source declares, as documents name it:
// top[pkg][Ident] for package-level names, member[Type][Name] for methods,
// fields and embedded type names. Packages and types that share a name pool
// their declarations: a document's `Result.Count` resolves if any Result
// has a Count.
type index struct{ top, member map[string]map[string]bool }

func add(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
}

// indexModule parses every non-test Go file under the working directory,
// the module root make runs the check from.
func indexModule() (*index, error) {
	const root = "."
	x := &index{top: map[string]map[string]bool{}, member: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := e.Name(); e.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					add(x.top, pkg, n.Name.Name)
				} else {
					add(x.member, typeName(n.Recv.List[0].Type), n.Name.Name)
				}
				return false
			case *ast.ValueSpec:
				for _, name := range n.Names {
					add(x.top, pkg, name.Name)
				}
			case *ast.TypeSpec:
				add(x.top, pkg, n.Name.Name)
				add(x.member, n.Name.Name, "")
				var fields *ast.FieldList
				switch t := n.Type.(type) {
				case *ast.StructType:
					fields = t.Fields
				case *ast.InterfaceType:
					fields = t.Methods
				default:
					return false
				}
				for _, field := range fields.List {
					for _, name := range field.Names {
						add(x.member, n.Name.Name, name.Name)
					}
					if len(field.Names) == 0 {
						add(x.member, n.Name.Name, typeName(field.Type))
					}
				}
				return false
			}
			return true
		})
		return nil
	})
	return x, err
}

// typeName returns the base type name of a receiver or embedded field: T,
// *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// hasMember reports whether typ declares name, or gets it promoted through
// a type it embeds.
func (x *index) hasMember(typ, name string, depth int) bool {
	if x.member[typ][name] {
		return true
	}
	for emb := range x.member[typ] {
		if depth < 4 && x.member[emb] != nil && x.hasMember(emb, name, depth+1) {
			return true
		}
	}
	return false
}

var (
	// codeSpan matches a backticked span; qualified a dotted chain of
	// identifiers inside one.
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	qualified = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+`)
	fileExt   = map[string]bool{"go": true, "md": true, "json": true, "csv": true, "txt": true, "sh": true, "mod": true}
)

// goName reports whether a name after a package can only be a Go
// identifier: exported, or camelCase. The rest — census, score_all,
// learn_ms — is how spans and ledger rows are named after the same packages.
func goName(name string) bool {
	return !strings.Contains(name, "_") && strings.ToLower(name) != name
}

// checkIdents reports the backticked qualified names in docs that name a
// package or type of the module but nothing it declares.
func checkIdents(docs []string) ([]string, error) {
	x, err := indexModule()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, chain := range qualified.FindAllString(strings.Join(codeSpan.FindAllString(line, -1), " "), -1) {
				parts := strings.Split(chain, ".")
				head, name := parts[0], parts[1]
				isPkg, isType := x.top[head] != nil, x.member[head] != nil
				switch {
				case fileExt[parts[len(parts)-1]], isPkg == isType: // a file name; another module's package, a variable, or a name that is both
				case isPkg && (!goName(name) || x.top[head][name]):
				case isType && x.hasMember(head, name, 0):
				default:
					out = append(out, fmt.Sprintf("%s:%d: `%s.%s` names nothing the module declares", doc, i+1, head, name))
				}
			}
		}
	}
	return out, nil
}

// opCell matches the first backticked word of a table cell.
var opCell = regexp.MustCompile("`([a-z_]+)`")

// checkOpTable reports the ops doc's shard-op table names that decl does not
// declare. A document without such a table is an error: the check must not
// pass because the table moved or lost its header.
func checkOpTable(doc, decl string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), decl, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				if !strings.HasPrefix(n.Name, "Op") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					op, _ := strconv.Unquote(lit.Value) // the parser accepted the literal
					declared[op] = true
				}
			}
		}
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var out []string
	col, rows := -1, 0 // the op column of the table being read; -1 outside one
	for i, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "|") {
			col = -1
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if col < 0 {
			for c, cell := range cells {
				if strings.TrimSpace(cell) == "op" {
					col = c
				}
			}
			continue
		}
		if col >= len(cells) {
			continue
		}
		if m := opCell.FindStringSubmatch(cells[col]); m != nil {
			rows++
			if !declared[m[1]] {
				out = append(out, fmt.Sprintf("%s:%d: shard op `%s` is not declared in %s", doc, i+1, m[1], decl))
			}
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("%s has no shard-op table (a markdown table with an \"op\" column)", doc)
	}
	return out, nil
}

func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var missing []string
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		missing = append(missing, checkFile(fset, f)...)
		files = append(files, f)
	}
	return append(missing, checkKnobTable(dir, files)...), nil
}

// knobRow matches one row of a package comment's knob table: a
// tab-indented (preformatted) line that opens with an option constructor's
// call form.
var knobRow = regexp.MustCompile(`(?m)^\t(With[A-Za-z0-9]+)\(`)

// checkKnobTable compares the exported With* constructors of a package with
// the rows of its package comment's knob table, in both directions. A
// package without such constructors has nothing to check.
func checkKnobTable(dir string, files []*ast.File) []string {
	options := map[string]bool{}
	rows := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "With") {
				options[d.Name.Name] = true
			}
		}
		if f.Doc != nil {
			for _, m := range knobRow.FindAllStringSubmatch(f.Doc.Text(), -1) {
				rows[m[1]] = true
			}
		}
	}
	var out []string
	for name := range options {
		if !rows[name] {
			out = append(out, fmt.Sprintf("%s: option %s has no row in the package comment's knob table", dir, name))
		}
	}
	for name := range rows {
		if !options[name] {
			out = append(out, fmt.Sprintf("%s: knob table row %s names no exported option", dir, name))
		}
	}
	sort.Strings(out)
	return out
}

// checkFile reports the exported declarations of f that carry no doc
// comment or select from one of its internal/ imports.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	internals := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted the literal
		if !strings.Contains(path, "/internal/") && !strings.HasPrefix(path, "internal/") {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		internals[local] = path
	}
	var out []string
	undocumented := func(pos token.Pos, what string) {
		out = append(out, fmt.Sprintf("%s: %s has no doc comment", fset.Position(pos), what))
	}
	// leaks reports the selectors of a type expression rooted at an
	// internal import.
	leaks := func(expr ast.Expr, what string) {
		ast.Inspect(expr, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && internals[id.Name] != "" {
					out = append(out, fmt.Sprintf("%s: %s references internal package %q", fset.Position(id.Pos()), what, internals[id.Name]))
				}
			}
			return true
		})
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !funcIsPublic(d) {
				continue
			}
			if d.Doc == nil {
				undocumented(d.Pos(), "exported func "+d.Name.Name)
			}
			leaks(d.Type, "exported func "+d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					if d.Doc == nil && sp.Doc == nil {
						undocumented(sp.Pos(), "exported type "+sp.Name.Name)
					}
					checkTypeSpec(sp, undocumented, leaks)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if !n.IsExported() {
							continue
						}
						if d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							undocumented(n.Pos(), "exported value "+n.Name)
						}
						if sp.Type != nil {
							leaks(sp.Type, "exported value "+n.Name)
						}
						break
					}
				}
			}
		}
	}
	return out
}

// checkTypeSpec reports what an exported type exposes: its undocumented
// exported struct fields and interface methods — a same-line trailing
// comment counts, the compact style several small fields use — and the
// internal selectors of those members or, for any other definition, of the
// whole type expression.
func checkTypeSpec(sp *ast.TypeSpec, undocumented func(token.Pos, string), leaks func(ast.Expr, string)) {
	switch t := sp.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			exported := len(field.Names) == 0 && ast.IsExported(typeName(field.Type)) // embedded exported types are surface
			for _, n := range field.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if !exported {
				continue
			}
			name := sp.Name.Name + " embedded field"
			if len(field.Names) > 0 {
				name = sp.Name.Name + "." + field.Names[0].Name
			}
			if field.Doc == nil && field.Comment == nil {
				undocumented(field.Pos(), "exported field "+name)
			}
			leaks(field.Type, "exported field "+name)
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			name := sp.Name.Name + " embed"
			if len(m.Names) > 0 {
				name = sp.Name.Name + "." + m.Names[0].Name
			}
			if m.Doc == nil && m.Comment == nil {
				undocumented(m.Pos(), "interface method "+name)
			}
			leaks(m.Type, "interface method "+name)
		}
	default:
		// Aliases, named types over maps/slices/funcs: the whole
		// definition is the surface.
		leaks(sp.Type, "exported type "+sp.Name.Name)
	}
}

// funcIsPublic reports whether a function or method is part of the public
// surface: an exported name, and for methods an exported receiver base.
func funcIsPublic(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	base := d.Recv.List[0].Type
	for {
		switch t := base.(type) {
		case *ast.StarExpr:
			base = t.X
		case *ast.IndexExpr:
			base = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return true
		}
	}
}
