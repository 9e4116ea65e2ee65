package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// checkHotPath enforces the `//vet:hotpath` annotation: a doc-comment line
// marking a function as a zero-allocation, virtual-time-only path. The
// contract propagates through the call graph — every function reachable
// from an annotated root (static calls, plus CHA-resolved interface calls)
// is held to the same discipline:
//
//   - no fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf;
//   - no string concatenation inside a loop, and no string +=;
//   - no append growth in a loop unless the slice was made with an
//     explicit capacity (make(T, 0, n));
//   - no &CompositeLit (the zero-size struct{}{} is exempt) and no slice or
//     map literal returned (escaping allocations);
//   - no closure that captures outer variables created inside a loop
//     (per-iteration closure allocation), unless handed directly to
//     clock.Go or clock.GoDaemon;
//   - no wall-clock reachability: calling anything that transitively
//     reaches a time.Now/Sleep/… call (even a //vet:allow virtualtime'd
//     one) is reported at the call edge, with the chain to the source.
//
// A hot path waits by parking on a clock.Mailbox, Event or Group; a raw
// channel wait is virtualtime's finding, on or off a hot path.
// internal/clock is fully exempt (it is the sanctioned waiting and timing
// boundary). internal/trace and internal/telemetry are exempt from the
// allocation rules: both are nil-safe fast-path instruments whose
// zero-cost-when-disabled contract is enforced by their own tests; they
// still count as wall-clock sources if they read the host clock.
//
// Findings point at the offending construct (or call edge) and name the
// annotated root that reaches it. Suppress individual findings with
// `//vet:allow hotpath <reason>`.
func checkHotPath(l *Loader, _ []*Package, g *CallGraph, report reporter) {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}

	wallNext, wallReach := wallReachability(g)

	reported := map[token.Pos]bool{}
	flag := func(pos token.Pos, msg string) {
		if pos.IsValid() && reported[pos] {
			return
		}
		reported[pos] = true
		report(pos, "hotpath", msg)
	}

	visited := map[*FuncNode]bool{}
	for _, root := range roots {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue := []*FuncNode{root}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if !hotExemptPkg(n) {
				scanHotBody(l, n, root, flag)
			}
			if n == root && n.WallPos.IsValid() {
				p := l.Fset.Position(n.WallPos)
				flag(n.WallPos, fmt.Sprintf(
					"wall-clock time call at %s:%d inside a //vet:hotpath function — use the virtual clock",
					shortFile(p.Filename), p.Line))
			}
			for _, c := range n.Calls {
				if strings.HasSuffix(c.Callee.Pkg.Path, "internal/clock") {
					continue // the sanctioned timing/waiting boundary
				}
				if wallReach[c.Callee] {
					flag(c.Pos, fmt.Sprintf(
						"call reaches wall-clock time (%s) — hot path must stay on the virtual clock (reached from //vet:hotpath %s)",
						wallChain(l, c.Callee, wallNext), root.displayName()))
				}
				if !visited[c.Callee] {
					visited[c.Callee] = true
					queue = append(queue, c.Callee)
				}
			}
		}
	}
}

// hotExemptPkg reports packages exempt from the allocation scan.
func hotExemptPkg(n *FuncNode) bool {
	p := n.Pkg.Path
	return strings.HasSuffix(p, "internal/clock") ||
		strings.HasSuffix(p, "internal/trace") ||
		strings.HasSuffix(p, "internal/telemetry")
}

// wallReachability computes, over the whole graph, which functions
// transitively reach a direct wall-clock call, and for each the next hop
// toward the source (for chain rendering in messages).
func wallReachability(g *CallGraph) (next map[*FuncNode]*FuncNode, reach map[*FuncNode]bool) {
	next = map[*FuncNode]*FuncNode{}
	reach = map[*FuncNode]bool{}
	rev := map[*FuncNode][]*FuncNode{}
	var queue []*FuncNode
	for _, n := range g.Nodes {
		for _, c := range n.Calls {
			rev[c.Callee] = append(rev[c.Callee], n)
		}
		if n.WallPos.IsValid() {
			reach[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, caller := range rev[c] {
			if !reach[caller] {
				reach[caller] = true
				next[caller] = c
				queue = append(queue, caller)
			}
		}
	}
	return next, reach
}

// wallChain renders the call chain from n down to its wall-clock source.
func wallChain(l *Loader, n *FuncNode, next map[*FuncNode]*FuncNode) string {
	var parts []string
	cur := n
	for hops := 0; cur != nil && hops < 6; hops++ {
		parts = append(parts, cur.displayName())
		nx, ok := next[cur]
		if !ok {
			p := l.Fset.Position(cur.WallPos)
			parts = append(parts, fmt.Sprintf("time call at %s:%d", shortFile(p.Filename), p.Line))
			return strings.Join(parts, " → ")
		}
		cur = nx
	}
	parts = append(parts, "…")
	return strings.Join(parts, " → ")
}

// ---------------------------------------------------------------------------
// Per-function construct scan.

// presizedSlices returns the slices the body makes with an explicit
// capacity (make(T, n, c)).
func presizedSlices(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	presized := map[types.Object]bool{}
	note := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil {
			presized[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				if i < len(v.Lhs) {
					note(v.Lhs[i], rhs)
				}
			}
		case *ast.ValueSpec:
			for i, val := range v.Values {
				if i < len(v.Names) {
					note(v.Names[i], val)
				}
			}
		}
		return true
	})
	return presized
}

// scanHotBody walks n's declaration (function literals flattened in) and
// flags every hot-path-hostile construct, attributing it to root.
func scanHotBody(l *Loader, n *FuncNode, root *FuncNode, flag func(pos token.Pos, msg string)) {
	pkg, file := n.Pkg, n.File
	presized := presizedSlices(pkg, n.Decl.Body)
	suffix := fmt.Sprintf(" (reached from //vet:hotpath %s)", root.displayName())

	var stack []ast.Node
	inLoop := func() bool {
		for _, nd := range stack[:len(stack)-1] {
			switch nd.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return true
			}
		}
		return false
	}
	objOf := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[id]
	}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, nd)
		switch v := nd.(type) {
		case *ast.CallExpr:
			if name, ok := fmtAllocCall(pkg, file, v); ok {
				flag(v.Pos(), fmt.Sprintf("fmt.%s allocates per call%s", name, suffix))
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && inLoop() && isStringExpr(pkg, v) && !isConstExpr(pkg, v) {
				flag(v.Pos(), "string concatenation inside a loop allocates per iteration"+suffix)
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isStringExpr(pkg, v.Lhs[0]) {
				flag(v.Pos(), "string += allocates a fresh string per append"+suffix)
			}
			if inLoop() {
				for i, rhs := range v.Rhs {
					if i >= len(v.Lhs) {
						break
					}
					call, ok := rhs.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						continue
					}
					if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
						continue
					}
					dst := objOf(v.Lhs[i])
					src := objOf(call.Args[0])
					if dst == nil || dst != src || presized[dst] {
						continue
					}
					flag(call.Pos(), fmt.Sprintf(
						"append growth in a loop: %s has no pre-sized capacity (make(…, 0, n))%s",
						exprString(v.Lhs[i]), suffix))
				}
			}
		case *ast.UnaryExpr:
			if cl, ok := v.X.(*ast.CompositeLit); ok && v.Op == token.AND && !isZeroSizeLit(pkg, cl) {
				flag(v.Pos(), fmt.Sprintf("&%s{…} escapes to the heap%s", exprString(cl.Type), suffix))
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				cl, ok := r.(*ast.CompositeLit)
				if !ok || pkg.Info.Types[cl].Type == nil {
					continue
				}
				switch pkg.Info.Types[cl].Type.Underlying().(type) {
				case *types.Slice, *types.Map: // a struct or array value is copied out, not allocated
					flag(cl.Pos(), "slice or map literal in return allocates"+suffix)
				}
			}
		case *ast.FuncLit:
			if inLoop() && !isDirectClockArg(pkg, file, stack, v) && capturesOuter(pkg, v) {
				flag(v.Pos(), "closure capturing outer variables inside a loop allocates per iteration"+suffix)
			}
		}
		return true
	})
}

// fmtAllocCall matches the fmt formatting entry points that allocate.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

func fmtAllocCall(pkg *Package, file *ast.File, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !fmtAllocFuncs[sel.Sel.Name] {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkgPathOf(pkg, file, id) != "fmt" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isDirectClockArg reports whether lit is itself an argument of a
// clock.Go(…) or clock.GoDaemon(…) call (its immediate parent on the
// stack).
func isDirectClockArg(pkg *Package, file *ast.File, stack []ast.Node, lit *ast.FuncLit) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Go" && sel.Sel.Name != "GoDaemon" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && strings.HasSuffix(pkgPathOf(pkg, file, id), "internal/clock") &&
		slices.Contains(call.Args, ast.Expr(lit))
}

func isStringExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// isZeroSizeLit exempts struct{}{} — the canonical zero-size token value
// (channel signaling) that costs nothing to construct.
func isZeroSizeLit(pkg *Package, cl *ast.CompositeLit) bool {
	if len(cl.Elts) != 0 {
		return false
	}
	tv, ok := pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// capturesOuter reports whether lit references a variable declared outside
// it (excluding package-level variables, which are not closure captures).
func capturesOuter(pkg *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if pkg.Types != nil && v.Parent() == pkg.Types.Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
			return false
		}
		return true
	})
	return found
}
