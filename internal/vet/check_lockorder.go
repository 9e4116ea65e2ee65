package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lock walker: one source-order stream of lock events per function
// body, read by two rules — locks (no return while a mutex is held) and
// lockorder (no acquisition-order cycle). It approximates, it is not a
// CFG: precise enough for the straight-line lock sections this codebase
// uses, and every miss is on the quiet side.

const (
	evAcquire = iota
	evRelease
	evDeferRelease
	evCall
	evReturn
)

type lockEvent struct {
	kind   int
	key    string // lock identity (lockOrderKey)
	local  bool   // a function-local mutex: no cross-function order
	pos    token.Pos
	callee *FuncNode // evCall only
}

// lockEvents walks one function body in source order and records its
// acquires, releases, deferred releases and returns, plus — given the
// body's call-graph edges — its statically resolved calls outside a defer.
// Nested function literals are not entered: each is a body of its own (a
// goroutine body holds its own locks on its own stack, not its creator's).
func lockEvents(pkg *Package, body *ast.BlockStmt, calls []CallSite) []lockEvent {
	callAt := make(map[token.Pos]*FuncNode, len(calls))
	for _, c := range calls {
		if !c.ViaIface {
			callAt[c.Pos] = c.Callee
		}
	}
	var events []lockEvent
	var walk func(root ast.Node, inDefer bool)
	walk = func(root ast.Node, inDefer bool) {
		ast.Inspect(root, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				events = append(events, lockEvent{kind: evReturn, pos: v.Pos()})
			case *ast.DeferStmt:
				if ev, ok := lockOrderOp(pkg, v.Call); ok && ev.kind == evRelease {
					ev.kind = evDeferRelease
					events = append(events, ev)
					return false
				}
				walk(v.Call, true)
				return false
			case *ast.CallExpr:
				if ev, ok := lockOrderOp(pkg, v); ok {
					events = append(events, ev)
				} else if callee := callAt[v.Pos()]; callee != nil && !inDefer {
					events = append(events, lockEvent{kind: evCall, pos: v.Pos(), callee: callee})
				}
			}
			return true
		})
	}
	walk(body, false)
	return events
}

// deferReleased returns the keys a defer in the stream unlocks: those stay
// held to the end of the function, whatever the explicit releases say.
func deferReleased(events []lockEvent) map[string]bool {
	keys := map[string]bool{}
	for _, ev := range events {
		if ev.kind == evDeferRelease {
			keys[ev.key] = true
		}
	}
	return keys
}

// release drops key's hold from held.
func release(held []lockEvent, key string) []lockEvent {
	for i, h := range held {
		if h.key == key {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}

// checkLocks enforces lock hygiene: a mutex locked without a deferred
// unlock must not reach a return statement while held. Every function body
// is judged on its own stream — a literal's return under its own lock is a
// finding, one under its creator's is not — and function-local mutexes
// count. Each hold reports once: later returns on it cascade from the
// first.
//
// No test sees this check's bug: the mutant row
// locks-scraper-restart-keeps-lock (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkLocks(l *Loader, pkgs []*Package, _ *CallGraph, report reporter) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body == nil {
					return true
				}
				events := lockEvents(pkg, body, nil)
				deferred := deferReleased(events)
				var held []lockEvent
				for _, ev := range events {
					switch {
					case ev.kind == evAcquire && !deferred[ev.key]:
						held = append(release(held, ev.key), ev) // a re-acquire resets
					case ev.kind == evRelease:
						held = release(held, ev.key)
					case ev.kind == evReturn:
						for _, h := range held {
							report(ev.pos, "locks", fmt.Sprintf(
								"return while %s is locked (Lock at line %d) without a deferred unlock",
								h.key, l.Fset.Position(h.pos).Line))
						}
						held = held[:0]
					}
				}
				return true
			})
		}
	}
}

// checkLockOrder extracts a global lock-acquisition-order graph and
// reports cycles as potential deadlocks. A node is a lock identity; an
// edge A→B means some function acquires B while holding A — directly, or
// by calling (transitively) a function that acquires B. Two functions
// taking the same pair of locks in opposite orders form a cycle: the
// classic latent deadlock that no finite test run reliably exhibits.
//
// Lock identity is type-qualified: `db.mu.Lock()` where db is *ndb.DB
// keys as "ndb.DB.mu", so every instance of a type shares one node (the
// deadlock argument is about the order discipline of the code, not about
// specific instances). Package-level mutexes key as "pkg.var".
//
// Approximations, all on the quiet side:
//
//   - Holds are tracked on each declaration's lock-event stream; a
//     `defer mu.Unlock()` keeps the lock held to the end of the function.
//   - Only statically resolved calls propagate acquisition sets —
//     interface dispatch does not (CHA over lock behavior would drown the
//     report in impossible pairs).
//   - Function literals and function-local mutexes add no edges: a
//     goroutine body holds its own locks on its own stack, not its
//     creator's, and a mutex that never leaves its frame has no
//     cross-function order (if it escapes, its methods key it where they
//     are called).
//   - Self-edges (A→A) are dropped: re-acquiring the same identity is
//     either a re-entrant bug or a different instance of the same type,
//     which needs instance-order reasoning beyond a static pass.
//
// Each cycle reports once, at its lexically first edge, listing every
// edge with the function that introduces it. Suppress with
// `//vet:allow lockorder <reason>` on that edge's line.
//
// No test sees this check's bug: the mutant row
// lockorder-pickwarm-reads-platform-under-deployment (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkLockOrder(l *Loader, _ []*Package, g *CallGraph, report reporter) {
	events := make(map[*FuncNode][]lockEvent, len(g.Nodes))
	acqAll := make(map[*FuncNode]map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		evs := lockEvents(n.Pkg, n.Decl.Body, n.Calls)
		direct := map[string]bool{}
		for _, ev := range evs {
			if ev.kind == evAcquire && !ev.local {
				direct[ev.key] = true
			}
		}
		events[n], acqAll[n] = evs, direct
	}

	// Fixpoint: a function's transitive acquisition set is its direct
	// acquires plus every statically-called function's set.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			set := acqAll[n]
			for _, ev := range events[n] {
				if ev.kind != evCall {
					continue
				}
				for k := range acqAll[ev.callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}

	// Order edges: acquired-while-held, direct and through calls.
	edges := map[string]map[string]lockOrderEdge{}
	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]lockOrderEdge{}
			edges[from] = m
		}
		if old, ok := m[to]; !ok || posLess(l.Fset.Position(pos), l.Fset.Position(old.pos)) {
			m[to] = lockOrderEdge{from: from, to: to, pos: pos, via: via}
		}
	}
	for _, n := range g.Nodes {
		deferred := deferReleased(events[n])
		var held []lockEvent
		for _, ev := range events[n] {
			if ev.local {
				continue
			}
			switch ev.kind {
			case evAcquire:
				for _, h := range held {
					addEdge(h.key, ev.key, ev.pos, "")
				}
				held = append(release(held, ev.key), ev) // a re-acquire resets
			case evRelease:
				if !deferred[ev.key] {
					held = release(held, ev.key)
				}
			case evCall:
				for k := range acqAll[ev.callee] {
					for _, h := range held {
						addEdge(h.key, k, ev.pos, ev.callee.displayName())
					}
				}
			}
		}
	}

	// A strongly connected component of the order graph is a set of locks
	// with no consistent global acquisition order — report each once, at
	// its lexically first edge.
	for _, cyc := range findLockCycles(l, edges) {
		report(cyc[0].pos, "lockorder", fmt.Sprintf(
			"lock-order cycle (potential deadlock): %s — impose one global acquisition order",
			describeLockCycle(l, cyc)))
	}
}

// lockOrderOp classifies call as a mutex Lock/RLock (acquire) or
// Unlock/RUnlock (release) — the analyzer's one lock classifier — and
// keys the mutex. When type info is available the method must come from
// package sync, so a type's own Lock and Unlock methods are not a mutex's.
func lockOrderOp(pkg *Package, call *ast.CallExpr) (lockEvent, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return lockEvent{}, false
	}
	ev := lockEvent{kind: evRelease, pos: call.Pos()}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		ev.kind = evAcquire
	case "Unlock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	if obj, found := pkg.Info.Uses[sel.Sel]; found {
		fn, isFn := obj.(*types.Func)
		if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return lockEvent{}, false
		}
	}
	ev.key, ev.local = lockOrderKey(pkg, sel.X)
	return ev, true
}

// lockOrderKey derives the type-qualified identity of the mutex
// expression: "pkg.Type.field" for a struct field, "pkg.var" for a
// package-level mutex. A function-local mutex keys by its name and is
// marked local; without type info the key is the expression's text.
func lockOrderKey(pkg *Package, e ast.Expr) (key string, local bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return lockOrderKey(pkg, v.X)
	case *ast.SelectorExpr:
		if tv, found := pkg.Info.Types[v.X]; found && tv.Type != nil {
			t := tv.Type
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Sel.Name, false
			}
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[v]; obj != nil {
			if pkg.Types != nil && obj.Parent() == pkg.Types.Scope() {
				return pkg.Types.Name() + "." + v.Name, false
			}
			return v.Name, true
		}
	}
	return exprString(e), false
}

// ---------------------------------------------------------------------------
// Cycle detection and reporting.

type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	via      string
}

// findLockCycles computes strongly connected components over the edge map
// and returns, per cyclic component, its member edges sorted by position.
func findLockCycles(l *Loader, edges map[string]map[string]lockOrderEdge) [][]lockOrderEdge {
	keys := make([]string, 0, len(edges))
	inGraph := map[string]bool{}
	for from, m := range edges {
		if !inGraph[from] {
			inGraph[from] = true
			keys = append(keys, from)
		}
		for to := range m {
			if !inGraph[to] {
				inGraph[to] = true
				keys = append(keys, to)
			}
		}
	}
	sort.Strings(keys)

	// Tarjan's SCC, iterative over the sorted key space.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for to := range edges[v] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}

	var out [][]lockOrderEdge
	for _, comp := range sccs {
		member := map[string]bool{}
		for _, k := range comp {
			member[k] = true
		}
		var cyc []lockOrderEdge
		for _, from := range comp {
			for to, e := range edges[from] {
				if member[to] {
					cyc = append(cyc, lockOrderEdge{from: from, to: to, pos: e.pos, via: e.via})
				}
			}
		}
		sort.Slice(cyc, func(i, j int) bool {
			return posLess(l.Fset.Position(cyc[i].pos), l.Fset.Position(cyc[j].pos))
		})
		out = append(out, cyc)
	}
	// Deterministic report order across components.
	sort.Slice(out, func(i, j int) bool {
		return posLess(l.Fset.Position(out[i][0].pos), l.Fset.Position(out[j][0].pos))
	})
	return out
}

// describeLockCycle renders one component's edges for the finding message.
func describeLockCycle(l *Loader, cyc []lockOrderEdge) string {
	parts := make([]string, 0, len(cyc))
	for _, e := range cyc {
		p := l.Fset.Position(e.pos)
		loc := fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
		if e.via != "" {
			parts = append(parts, fmt.Sprintf("%s→%s (%s, via %s)", e.from, e.to, loc, e.via))
		} else {
			parts = append(parts, fmt.Sprintf("%s→%s (%s)", e.from, e.to, loc))
		}
	}
	return strings.Join(parts, ", ")
}

// shortFile trims a position's filename to its last two path elements.
func shortFile(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if slash < 0 {
		return name
	}
	if prev := strings.LastIndexByte(name[:slash], '/'); prev >= 0 {
		return name[prev+1:]
	}
	return name[slash+1:]
}
