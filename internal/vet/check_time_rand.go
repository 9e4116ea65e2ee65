package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
// It also keeps clock.Sim the only scheduler of simulation code, with
// three rules. A raw channel send, receive, select or range over a channel
// is a wait the clock cannot see: it hands the baton on only when the
// goroutine parks on a clock.Mailbox, Event or Group. clock.Idle wraps such
// a wait and guesses at its wake. A bare `go` statement starts a goroutine
// that runs beside the baton holder instead of in its turn. The host-side
// drivers under cmd/, examples/ and benchmark/ (a signal handler, an HTTP
// listener, an application's client threads, the benchmark's two Idle
// joins) are exempt from the three: they enter the simulation through Run,
// like any API user.
//
// A line reports once: `<-time.After(d)` is one mistake, not two.
//
// No test sees this check's bug: the mutant row
// virtualtime-indexfs-ctime-on-wall-clock (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkVirtualTime(l *Loader, pkg *Package, report reporter) {
	clockPath := l.ModulePath + "/internal/clock"
	if pkg.Path == clockPath {
		return
	}
	rel := strings.TrimPrefix(pkg.Path, l.ModulePath+"/")
	host := rel == "benchmark" || strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
	for _, file := range pkg.Files {
		lines := map[int]bool{}
		flag := func(pos token.Pos, msg string) {
			if line := l.Fset.Position(pos).Line; !lines[line] {
				lines[line] = true
				report(pos, "virtualtime", msg)
			}
		}
		wait := func(pos token.Pos, what string) {
			if !host {
				flag(pos, what+" is a wait clock.Sim cannot see — wait on a clock.Mailbox, Event or Group")
			}
		}
		var comms []ast.Stmt // select cases: judged with their select
		inComm := func(n ast.Node) bool {
			for _, c := range comms {
				if c.Pos() <= n.Pos() && n.End() <= c.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				if !host {
					flag(v.Pos(), "bare go statement starts a goroutine the clock does not schedule — spawn through clock.Go, clock.GoDaemon or a clock.Group")
				}
			case *ast.SelectStmt:
				wait(v.Pos(), "select on raw channels")
				for _, cl := range v.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						comms = append(comms, cc.Comm)
					}
				}
			case *ast.SendStmt:
				if !inComm(v) {
					wait(v.Pos(), "raw channel send")
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && !inComm(v) {
					wait(v.Pos(), "raw channel receive")
				}
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[v.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						wait(v.Pos(), "range over a raw channel")
					}
				}
			case *ast.SelectorExpr:
				id, ok := v.X.(*ast.Ident)
				if !ok {
					break
				}
				if v.Sel.Name == "Idle" && !host && pkgPathOf(pkg, file, id) == clockPath {
					flag(v.Pos(), "clock.Idle wraps a wait the clock cannot wake exactly — wait on a clock.Mailbox, Event or Group")
				} else if wallClockFuncs[v.Sel.Name] && pkgPathOf(pkg, file, id) == "time" {
					flag(v.Pos(), fmt.Sprintf(
						"time.%s reads the wall clock — use the virtual clock ((*clock.Sim).%s, or a clock.Deadline for timeouts)",
						v.Sel.Name, v.Sel.Name))
				}
			}
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
//
// No test sees this check's bug: the mutant row
// determinism-tab2-unseeded (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkDeterminism(l *Loader, pkg *Package, report reporter) {
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
