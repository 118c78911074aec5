// Package statsguard keeps statistics mutation funneled through the
// designated bookkeeping methods. The mesif Engine (and any type built the
// same way) holds its counters in a struct field named "stats"; every
// transaction path is supposed to report through record/countSnoop rather
// than poking counters inline — that single-exit discipline is what makes
// the counters trustworthy and the invariant sweep's accounting stable.
// statsguard reports any assignment or increment that reaches through a
// field named "stats" from a method not on the allowlist (record,
// countSnoop, ResetStats, and Restore, which reinstalls counters a snapshot
// captured).
//
//hsw:tier tool
package statsguard

import (
	"go/ast"
	"go/types"

	"haswellep/tools/analyzers/analysis"
)

// Analyzer is the statsguard instance.
var Analyzer = &analysis.Analyzer{
	Name: "statsguard",
	Doc: "reports mutations of a struct's stats field outside the " +
		"designated bookkeeping methods (record, countSnoop, ResetStats, Restore)",
	Run: run,
}

// allowed lists the method names that may mutate a stats field.
var allowed = map[string]bool{
	"record":     true,
	"countSnoop": true,
	"ResetStats": true,
	"Restore":    true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || allowed[fn.Name.Name] {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc reports stats-field mutations inside one function.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := statsSelector(pass, lhs); ok {
					pass.Reportf(sel.Pos(),
						"%s mutates the stats field directly; route the update through record/countSnoop", fn.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := statsSelector(pass, n.X); ok {
				pass.Reportf(sel.Pos(),
					"%s mutates the stats field directly; route the update through record/countSnoop", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			// Taking the address of (part of) the stats field hands out a
			// mutation capability just the same.
			if n.Op.String() == "&" {
				if sel, ok := statsSelector(pass, n.X); ok {
					pass.Reportf(sel.Pos(),
						"%s takes the address of the stats field; route updates through record/countSnoop", fn.Name.Name)
				}
			}
		}
		return true
	})
}

// statsSelector walks an lvalue expression (through index and selector
// steps) looking for a field selection named "stats".
func statsSelector(pass *analysis.Pass, expr ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "stats" && isFieldSelection(pass, e) {
				return e, true
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil, false
		}
	}
}

// isFieldSelection reports whether the selector resolves to a struct field
// (rather than, say, a package-qualified identifier).
func isFieldSelection(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	if s.Kind() != types.FieldVal {
		return false
	}
	_, isVar := s.Obj().(*types.Var)
	return isVar
}
