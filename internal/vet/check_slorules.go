package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkSLORules is a module-wide check: SLO rule definitions (calls to
// internal/slo's Threshold / QuantileThreshold / BurnRate / Absence
// constructors) may only reference metric names that some analyzed
// package actually registers on a telemetry.Registry. A typo in a rule's
// metric name would otherwise produce a rule that silently never fires —
// the worst possible failure mode for an alerting layer — so the
// rule/metric binding is enforced statically, the same way metricnames
// enforces the registration side.
//
// The metric argument must be a compile-time constant (dynamic rule
// names would defeat the audit), and may name the instrument itself or
// its derived _count/_sum series.

// sloRuleMetricArgs maps slo rule-constructor names to the positions of
// their metric-name arguments.
var sloRuleMetricArgs = map[string][]int{
	"Threshold":         {1},
	"QuantileThreshold": {1},
	"BurnRate":          {1, 2},
	"Absence":           {1, 2},
}

func checkSLORules(l *Loader, pkgs []*Package, _ *CallGraph, report reporter) {
	// Pass 1: collect every constant instrument name registered anywhere
	// in the analyzed packages (the same call shape metricnames lints).
	registered := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registryMethods[sel.Sel.Name] || !isRegistryMethod(pkg, sel) {
					return true
				}
				if len(call.Args) == 0 {
					return true
				}
				if name, isConst := constString(pkg, call.Args[0]); isConst {
					registered[name] = true
				}
				return true
			})
		}
	}

	// Pass 2: validate the metric-name arguments of every rule
	// constructor call — qualified (slo.Threshold) or, inside the slo
	// package itself, unqualified (Threshold).
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var fnIdent *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					fnIdent = fun.Sel
				case *ast.Ident:
					fnIdent = fun
				default:
					return true
				}
				argIdxs, isCtor := sloRuleMetricArgs[fnIdent.Name]
				if !isCtor || !isSLOConstructor(pkg, fnIdent) {
					return true
				}
				for _, idx := range argIdxs {
					if idx >= len(call.Args) {
						continue
					}
					arg := call.Args[idx]
					name, isConst := constString(pkg, arg)
					if !isConst {
						report(arg.Pos(), "slorules", fmt.Sprintf(
							"SLO rule metric must be a string literal or constant, not %s — rule/metric bindings must be statically auditable",
							exprString(arg)))
						continue
					}
					base := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
					if !registered[name] && !registered[base] {
						report(arg.Pos(), "slorules", fmt.Sprintf(
							"SLO rule references metric %q, which no package registers — the rule would never fire; fix the name or register the instrument",
							name))
					}
				}
				return true
			})
		}
	}
}

// isSLOConstructor reports whether ident resolves to a function declared
// in internal/slo.
func isSLOConstructor(pkg *Package, ident *ast.Ident) bool {
	obj, ok := pkg.Info.Uses[ident]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/slo")
}
