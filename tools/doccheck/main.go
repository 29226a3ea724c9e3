// Command doccheck fails the build when an exported symbol of a package
// lacks a doc comment. The public SDK is documentation-first: every
// exported type, function, method, exported struct field, interface
// method, and exported var/const must carry a comment, so godoc (and the
// README's pointers into it) never dead-ends on a bare name.
//
// The check is syntactic, like apicheck: for every non-test file it walks
// exported declarations and reports the ones whose Doc is empty. Grouped
// var/const specs inherit the group comment; a field list with one comment
// per line passes via line comments.
//
// A package of functional options documents them in one place, the knob
// table of its package comment (tab-indented rows that open "WithName("). The
// table must list exactly the exported With* constructors: an option
// without a row cannot land undocumented, and a row whose option is gone
// cannot linger.
//
// A document may also name identifiers that no longer exist. The first,
// narrow check of that kind: with -op-doc and -op-decl, every op named in
// the document's shard-op table (the markdown table with an "op" column;
// the first backticked word of that cell) must be the value of an Op*
// string constant in the protocol's source file, so the table cannot keep a
// row for an op the protocol dropped.
//
// Usage: go run ./tools/doccheck [-op-doc ARCHITECTURE.md -op-decl internal/shard/protocol.go] [package dirs...]  (default: lsample)
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
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"lsample"}
	}
	bad := 0
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
		fmt.Fprintf(os.Stderr, "doccheck: %d documentation gap(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("doccheck: every exported symbol is documented and the knob table lists every option")
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

func checkFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s: %s has no doc comment", p, what))
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !funcIsPublic(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "exported func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					if d.Doc == nil && sp.Doc == nil {
						report(sp.Pos(), "exported type "+sp.Name.Name)
					}
					checkTypeSpec(sp, report)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(n.Pos(), "exported value "+n.Name)
							break
						}
					}
				}
			}
		}
	}
	return out
}

// checkTypeSpec reports undocumented exported members visible through an
// exported type: struct fields and interface methods. A same-line trailing
// comment counts — the compact style several small fields use.
func checkTypeSpec(sp *ast.TypeSpec, report func(token.Pos, string)) {
	switch t := sp.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			exported := len(field.Names) == 0 // embedded fields are surface
			for _, n := range field.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if exported && field.Doc == nil && field.Comment == nil {
				name := sp.Name.Name + " embedded field"
				if len(field.Names) > 0 {
					name = sp.Name.Name + "." + field.Names[0].Name
				}
				report(field.Pos(), "exported field "+name)
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc == nil && m.Comment == nil {
				name := sp.Name.Name + " embed"
				if len(m.Names) > 0 {
					name = sp.Name.Name + "." + m.Names[0].Name
				}
				report(m.Pos(), "interface method "+name)
			}
		}
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
