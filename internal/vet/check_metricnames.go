package vet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// checkMetricNames lints telemetry instrument registration: every
// *telemetry.Registry Counter/Gauge/GaugeFunc/Histogram call must use a
// compile-time-constant name matching
//
//	lambdafs_<subsystem>_<metric>
//
// with the subsystem equal to the registering package's name — the
// convention the telemetry package documents, enforced at the call sites
// that can drift. Kind conventions ride along: counters end in _total,
// gauges do not (a gauge is a level, not a total), histograms end in a
// unit suffix (_seconds, _bytes, _ratio). Label sets must be bounded and
// statically known: at most three labels, each constructed inline with
// telemetry.L and a constant key (dynamic keys are unbounded-cardinality
// bugs waiting to happen).
//
// Registration through the nil-safe Registry is still a registration —
// the check is purely about the call site's literals, so it fires no
// matter how the registry is wired. Cross-cutting metrics registered
// outside their subsystem's package take a
// `//vet:allow metricnames <reason>`.
var metricNameRe = regexp.MustCompile(`^lambdafs_[a-z0-9]+(_[a-z0-9]+)+$`)

var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true,
}

func checkMetricNames(l *Loader, pkg *Package, report reporter) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registryMethods[sel.Sel.Name] {
				return true
			}
			if !isRegistryMethod(pkg, sel) {
				return true
			}
			kind := sel.Sel.Name
			if len(call.Args) == 0 {
				return true
			}
			nameArg := call.Args[0]
			name, isConst := constString(pkg, nameArg)
			if !isConst {
				report(nameArg.Pos(), "metricnames", fmt.Sprintf(
					"telemetry instrument name must be a string literal or constant, not %s — the metric namespace must be statically auditable",
					exprString(nameArg)))
				return true
			}
			checkMetricName(pkg, kind, name, nameArg.Pos(), report)
			checkMetricLabels(pkg, kind, name, call, report)
			return true
		})
	}
}

// isRegistryMethod verifies the selector is a method of
// *internal/telemetry.Registry via type information.
func isRegistryMethod(pkg *Package, sel *ast.SelectorExpr) bool {
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Registry" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/telemetry")
}

func checkMetricName(pkg *Package, kind, name string, pos token.Pos, report reporter) {
	if !metricNameRe.MatchString(name) {
		report(pos, "metricnames", fmt.Sprintf(
			"telemetry metric %q does not match lambdafs_<subsystem>_<metric> (lowercase, underscore-separated)", name))
		return
	}
	subsystem := strings.SplitN(strings.TrimPrefix(name, "lambdafs_"), "_", 2)[0]
	pkgName := pkg.Types.Name()
	if subsystem != pkgName {
		report(pos, "metricnames", fmt.Sprintf(
			"telemetry metric %q: subsystem %q does not match registering package %q", name, subsystem, pkgName))
	}
	switch kind {
	case "Counter":
		if !strings.HasSuffix(name, "_total") {
			report(pos, "metricnames", fmt.Sprintf("counter %q must end in _total", name))
		}
	case "Gauge", "GaugeFunc":
		if strings.HasSuffix(name, "_total") {
			report(pos, "metricnames", fmt.Sprintf(
				"gauge %q must not end in _total — gauges are levels, not monotone totals", name))
		}
	case "Histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") &&
			!strings.HasSuffix(name, "_ratio") {
			report(pos, "metricnames", fmt.Sprintf(
				"histogram %q must end in a unit suffix (_seconds, _bytes, _ratio)", name))
		}
	}
}

func checkMetricLabels(pkg *Package, kind, name string, call *ast.CallExpr, report reporter) {
	labelStart := 1
	if kind == "GaugeFunc" {
		labelStart = 2
	}
	if len(call.Args) <= labelStart {
		return
	}
	if call.Ellipsis.IsValid() {
		report(call.Args[len(call.Args)-1].Pos(), "metricnames", fmt.Sprintf(
			"metric %q: labels must be passed inline (telemetry.L with constant keys), not spread from a slice", name))
		return
	}
	labels := call.Args[labelStart:]
	if len(labels) > 3 {
		report(labels[3].Pos(), "metricnames", fmt.Sprintf(
			"metric %q has %d labels — bound the label set (at most 3)", name, len(labels)))
	}
	for _, arg := range labels {
		lcall, ok := arg.(*ast.CallExpr)
		if !ok || len(lcall.Args) < 1 {
			report(arg.Pos(), "metricnames", fmt.Sprintf(
				"metric %q: label must be constructed inline with telemetry.L(key, value)", name))
			continue
		}
		if _, keyConst := constString(pkg, lcall.Args[0]); !keyConst {
			report(lcall.Args[0].Pos(), "metricnames", fmt.Sprintf(
				"metric %q: label key must be a string literal or constant — dynamic keys make cardinality unbounded", name))
		}
	}
}

// constString returns e's compile-time string value.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
