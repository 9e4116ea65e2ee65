package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// wallClockFuncs are the time-package entry points that read or wait on
// the host clock. Durations, formatting, and time arithmetic remain free;
// anything that *observes* wall time must go through internal/clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// checkVirtualTime enforces the virtual-time discipline: no wall-clock
// reads or waits outside internal/clock. The simulation's whole latency
// model — and the benchmark numbers reproduced from the paper — depends
// on every duration flowing through the clock.Sim.
//
// It also keeps waits exact: clock.Idle wraps a raw channel wait whose wake
// the clock does not own, so time can advance before the
// woken goroutine runs. Every wait goes through a clock.Mailbox, Event or
// Group instead, and any Idle call outside a _test.go file is a finding.
// The benchmark/ module, which this analyzer's directory walk also visits,
// is exempt by path: its two Idle joins (run.go) are frozen with the rest of
// the benchmark until a benchmark PR moves them, cannot take a //vet:allow
// meanwhile, and run on one P, where Idle's heuristic is sound. They are why
// Idle still exists.
//
// And it keeps clock.Sim the only scheduler of simulation code: a bare `go`
// statement starts a goroutine that runs beside the baton holder instead of
// in its turn. The programs under cmd/ and examples/ are exempt: host-side
// drivers (a signal handler, an HTTP listener, an application's client
// threads) that enter the simulation through Run, like any API user.
func checkVirtualTime(l *Loader, pkg *Package, report func(pos token.Pos, check, msg string)) {
	clockPath := l.ModulePath + "/internal/clock"
	if pkg.Path == clockPath {
		return
	}
	idleExempt := pkg.Path == l.ModulePath+"/benchmark"
	goExempt := strings.HasPrefix(pkg.Path, l.ModulePath+"/cmd/") || strings.HasPrefix(pkg.Path, l.ModulePath+"/examples/")
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !goExempt {
				report(g.Pos(), "virtualtime",
					"bare go statement starts a goroutine the clock does not schedule — spawn through clock.Go, clock.GoDaemon or a clock.Group")
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Idle" && !idleExempt && pkgPathOf(pkg, file, ident) == clockPath {
				report(sel.Pos(), "virtualtime",
					"clock.Idle wraps a wait the clock cannot wake exactly — wait on a clock.Mailbox, Event or Group")
				return true
			}
			if !wallClockFuncs[sel.Sel.Name] || pkgPathOf(pkg, file, ident) != "time" {
				return true
			}
			report(sel.Pos(), "virtualtime", fmt.Sprintf(
				"time.%s reads the wall clock — use the virtual clock ((*clock.Sim).%s, or a clock.Deadline for timeouts)",
				sel.Sel.Name, sel.Sel.Name))
			return true
		})
	}
}

// randGlobalFuncs are the math/rand package-level functions that draw from
// the shared global source, which no seed plumbing can make reproducible
// alongside other consumers.
var randGlobalFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// checkDeterminism enforces seeded randomness: no global math/rand source,
// and every rand.New / rand.NewSource must derive from a plumbed seed —
// approximated as "the source expression mentions an identifier whose name
// contains 'seed'". That convention is what lets a -seed / -chaosseed flag
// replay an entire run byte-for-byte.
func checkDeterminism(l *Loader, pkg *Package, report func(pos token.Pos, check, msg string)) {
	for _, file := range pkg.Files {
		// rand.New(rand.NewSource(e)) reports once, at the outer call.
		handled := map[*ast.CallExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				name, ok := randSelector(pkg, file, v.Fun)
				if !ok {
					return true
				}
				switch name {
				case "New", "NewSource":
					if handled[v] {
						return true
					}
					handled[v] = true
					if len(v.Args) == 1 {
						if inner, ok := v.Args[0].(*ast.CallExpr); ok {
							if innerName, ok := randSelector(pkg, file, inner.Fun); ok && innerName == "NewSource" {
								handled[inner] = true
							}
						}
						if !mentionsSeed(v.Args[0]) {
							report(v.Pos(), "determinism", fmt.Sprintf(
								"rand.%s source is not derived from a plumbed seed (no identifier mentioning \"seed\" in %q)",
								name, exprString(v.Args[0])))
						}
					}
				}
			case *ast.SelectorExpr:
				if name, ok := randSelector(pkg, file, v); ok && randGlobalFuncs[name] {
					report(v.Pos(), "determinism", fmt.Sprintf(
						"rand.%s uses the global math/rand source — thread a seeded *rand.Rand instead", name))
				}
			}
			return true
		})
	}
}

// randSelector reports whether e is a selector on the math/rand package
// and returns the selected name.
func randSelector(pkg *Package, file *ast.File, e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	switch pkgPathOf(pkg, file, ident) {
	case "math/rand", "math/rand/v2":
		return sel.Sel.Name, true
	}
	return "", false
}

// mentionsSeed reports whether the expression tree contains an identifier
// (or selector field) whose name mentions "seed".
func mentionsSeed(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if strings.Contains(strings.ToLower(id.Name), "seed") {
				found = true
			}
		}
		return !found
	})
	return found
}
