// Command obscheck lints the repository's observability conventions. It
// parses every non-test Go file under the given roots (default ".") and
// fails the build when it finds:
//
//   - a metric registered without a help string: any call to NewCounter,
//     NewCounterVec, CounterFunc, GaugeFunc, NewTimer, or NewHistogram whose help argument
//     is the empty string literal "" (the registry panics on this at
//     runtime; the lint catches it at CI time);
//
//   - a metric family name registered from two call sites: a family is
//     declared once, in one registry constructor, and every rendering
//     (/metrics, /v1/stats) derives from that declaration. Two roles that
//     expose the same family share the registering function (see
//     obs.Tracer.Register) instead of each spelling the name and help;
//
//   - a span opened but never ended: an assignment from StartSpan,
//     StartRequest, EnsureSpan, or ChildSpan whose span result either is
//     discarded into the blank identifier or has no End() call anywhere
//     in the enclosing function (including deferred calls and nested
//     function literals). A span that never ends never reaches the trace
//     ring and never updates the slow-query log, so this is always a bug.
//
// The End check is intentionally syntactic: one End() call anywhere in
// the function satisfies it, so a span ended on only some return paths
// can still slip through — prefer `defer span.End()` or the explicit
// End-before-every-return idiom the codebase uses.
//
// Usage: obscheck [dir ...]
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
	"strconv"
	"strings"
)

// metricFuncs are registration calls whose first argument is the family
// name and whose second is the mandatory help string.
var metricFuncs = map[string]bool{
	"NewCounter":    true,
	"NewCounterVec": true,
	"CounterFunc":   true,
	"GaugeFunc":     true,
	"NewTimer":      true,
	"NewHistogram":  true,
}

// spanFuncs open a span as the second result: (ctx, span) or
// (parent, child).
var spanFuncs = map[string]bool{
	"StartSpan":    true,
	"StartRequest": true,
	"EnsureSpan":   true,
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	fset := token.NewFileSet()
	var problems []string
	families := map[string][]token.Position{} // family name -> registering call sites
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name != "." && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			// Test files are exempt: the obs package's own tests open
			// spans without ending them and register empty-help metrics
			// on purpose, to assert the runtime behavior of exactly the
			// mistakes this lint exists to catch.
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("parse %s: %w", path, err)
			}
			problems = append(problems, lintFile(fset, file, families)...)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
			os.Exit(2)
		}
	}
	for name, sites := range families {
		for _, site := range sites[1:] {
			problems = append(problems,
				fmt.Sprintf("%s: metric family %s is already registered at %s", site, name, sites[0]))
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "obscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

func lintFile(fset *token.FileSet, file *ast.File, families map[string][]token.Position) []string {
	var problems []string

	// Rule 1: metric registrations must carry a help string, and each
	// family name is registered from one call site (recorded in families;
	// main reports the duplicates once every file is in). The lint is
	// conservative: it only sees string literals — a non-literal help is
	// checked by the registry's runtime panic, as is a name registered
	// twice in one registry.
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !metricFuncs[name] || len(call.Args) < 2 {
			return true
		}
		if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING && lit.Value == `""` {
			problems = append(problems,
				fmt.Sprintf("%s: %s registered with an empty help string", fset.Position(call.Pos()), name))
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if family, err := strconv.Unquote(lit.Value); err == nil {
				families[family] = append(families[family], fset.Position(call.Pos()))
			}
		}
		return true
	})

	// Rule 2: every opened span must End. Walk each function (declaration
	// or literal) and match span-producing assignments against End calls
	// in the same body.
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		problems = append(problems, lintSpans(fset, body)...)
		return true
	})
	return problems
}

// lintSpans checks one function body: span variables assigned from a
// span-opening call in THIS body (not in nested literals — those are
// visited as their own functions) must have End called somewhere in the
// body's whole subtree, nested literals included.
func lintSpans(fset *token.FileSet, body *ast.BlockStmt) []string {
	type opened struct {
		name string
		pos  token.Pos
		fn   string
	}
	var spans []opened
	var problems []string

	// Collect span-opening assignments belonging to this body only.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested function: linted separately
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeName(call)
		spanIdx := -1
		if spanFuncs[fn] && len(assign.Lhs) == 2 {
			spanIdx = 1 // (ctx, span) := StartSpan(...)
		} else if fn == "ChildSpan" && len(assign.Lhs) == 1 {
			spanIdx = 0 // child := span.ChildSpan(...)
		}
		if spanIdx < 0 {
			return true
		}
		id, ok := assign.Lhs[spanIdx].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			problems = append(problems,
				fmt.Sprintf("%s: span from %s discarded without End", fset.Position(assign.Pos()), fn))
			return true
		}
		spans = append(spans, opened{name: id.Name, pos: assign.Pos(), fn: fn})
		return true
	})
	if len(spans) == 0 {
		return problems
	}

	// Find End calls anywhere below this body, nested literals included —
	// a goroutine closing over the span counts.
	ended := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); ok {
			ended[recv.Name] = true
		}
		return true
	})
	for _, s := range spans {
		if !ended[s.name] {
			problems = append(problems,
				fmt.Sprintf("%s: span %q from %s is never ended in this function", fset.Position(s.pos), s.name, s.fn))
		}
	}
	return problems
}

// calleeName returns the bare called name: Foo for Foo(...) and for
// x.y.Foo(...).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
