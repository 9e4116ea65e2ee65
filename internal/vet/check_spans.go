package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkSpans enforces trace-span hygiene: every *trace.ActiveSpan opened
// with Ctx.Start and every *trace.Ctx opened with Tracer.StartTrace must be
// closed (End/EndAt/Cancel, resp. Finish) in the function that opened it —
// deferred, inside a function literal it hands the span to, or on every
// return path before control leaves. An unclosed span never records its
// duration, so the trace it belongs to under-reports exactly the operation
// it was meant to measure.
//
// The check is type-driven: an opener is any method call named Start or
// StartTrace whose result is a pointer to a named type from
// .../internal/trace. Spans that escape the function (passed as an
// argument, returned, stored in a field or composite) are assumed to be
// closed by their new owner; trace.Tracer.OpenSpans, which the traced
// tests assert is 0 when they end, catches those the check cannot see
// (the HTTP call span, whose context rides in the invocation's payload).
//
// No test sees this check's bug: the mutant row
// spans-subtree-inv-failure-span-leaked (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkSpans(l *Loader, pkg *Package, report reporter) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSpanBody(pkg, fn.Body, report)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					checkSpanBody(pkg, fn.Body, report)
				}
			}
			return true
		})
	}
}

var spanClosers = map[string]bool{"End": true, "EndAt": true, "Cancel": true, "Finish": true}

// spanOpener reports whether call opens a span or trace, returning the
// result's type name ("ActiveSpan" or "Ctx").
func spanOpener(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Start" && sel.Sel.Name != "StartTrace") {
		return "", false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return "", false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/trace") {
		return "", false
	}
	switch named.Obj().Name() {
	case "ActiveSpan", "Ctx":
		return named.Obj().Name(), true
	}
	return "", false
}

type spanEvent struct {
	kind int // 0 open, 1 close, 2 return
	pos  token.Pos
	obj  types.Object
	name string // type name at open
}

type spanState struct {
	deferClosed bool
	escaped     bool
	litClosed   bool
	anyClose    bool
}

// checkSpanBody analyzes one function body. Statements inside nested
// function literals are excluded from the flattened event stream (the
// literal is analyzed as its own root), except that a closer on an outer
// span inside a literal marks that span as handled.
func checkSpanBody(pkg *Package, body *ast.BlockStmt, report reporter) {
	var events []spanEvent
	state := map[types.Object]*spanState{}
	tracked := func(id *ast.Ident) types.Object {
		obj := pkg.Info.Uses[id]
		if obj == nil {
			obj = pkg.Info.Defs[id]
		}
		if obj != nil && state[obj] != nil {
			return obj
		}
		return nil
	}
	objOf := func(id *ast.Ident) types.Object {
		if obj := pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[id]
	}

	// Pass 1: flattened depth-0 event stream. walk carries litDepth so
	// nested literals contribute only closer facts.
	var walk func(n ast.Node, litDepth int)
	walk = func(n ast.Node, litDepth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true // the root literal itself
				}
				walk(v.Body, litDepth+1)
				return false
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(v.Lhs) {
						continue
					}
					name, ok := spanOpener(pkg, call)
					if !ok {
						continue
					}
					id, isIdent := v.Lhs[i].(*ast.Ident)
					if !isIdent || id.Name == "_" {
						if litDepth == 0 {
							report(call.Pos(), "spans", fmt.Sprintf(
								"trace %s discarded at open — it can never be ended", name))
						}
						continue
					}
					if litDepth > 0 {
						continue // the literal's own analysis sees it
					}
					obj := objOf(id)
					if obj == nil {
						continue
					}
					if state[obj] == nil {
						state[obj] = &spanState{}
					}
					events = append(events, spanEvent{kind: 0, pos: call.Pos(), obj: obj, name: name})
				}
			case *ast.ExprStmt:
				if call, ok := v.X.(*ast.CallExpr); ok {
					if name, ok := spanOpener(pkg, call); ok && litDepth == 0 {
						report(call.Pos(), "spans", fmt.Sprintf(
							"trace %s discarded at open — it can never be ended", name))
					}
					if obj := closerTarget(pkg, call, tracked); obj != nil {
						if litDepth > 0 {
							state[obj].litClosed = true
						} else {
							state[obj].anyClose = true
							events = append(events, spanEvent{kind: 1, pos: call.Pos(), obj: obj})
						}
					}
				}
			case *ast.DeferStmt:
				if obj := closerTarget(pkg, v.Call, tracked); obj != nil {
					state[obj].deferClosed = true
				}
			case *ast.ReturnStmt:
				if litDepth == 0 {
					events = append(events, spanEvent{kind: 2, pos: v.Pos()})
				}
			}
			return true
		})
	}
	walk(body, 0)

	if len(state) == 0 {
		return
	}

	// Pass 2: escape analysis — a tracked ident appearing as a call
	// argument, return value, send value, or composite element hands
	// ownership elsewhere.
	ast.Inspect(body, func(n ast.Node) bool {
		markIdents := func(e ast.Expr) {
			ast.Inspect(e, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := tracked(id); obj != nil {
						state[obj].escaped = true
					}
				}
				return true
			})
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			for _, a := range v.Args {
				markIdents(a)
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				markIdents(r)
			}
		case *ast.SendStmt:
			markIdents(v.Value)
		case *ast.CompositeLit:
			for _, e := range v.Elts {
				markIdents(e)
			}
		case *ast.AssignStmt:
			// Aliasing (x.f = sp, other = sp): obj on the RHS as a bare
			// ident. Opener calls on the RHS contain no tracked idents.
			for _, r := range v.Rhs {
				if id, ok := r.(*ast.Ident); ok {
					if obj := tracked(id); obj != nil {
						state[obj].escaped = true
					}
				}
			}
		}
		return true
	})

	// Pass 3: judge each opening by its window (to the next opening of the
	// same object). A return before the window's first closer leaks the
	// span on that path.
	for i, ev := range events {
		if ev.kind != 0 {
			continue
		}
		st := state[ev.obj]
		if st.deferClosed || st.escaped || st.litClosed {
			continue
		}
		if !st.anyClose {
			report(ev.pos, "spans", fmt.Sprintf(
				"trace %s opened here is never ended in this function (no End/EndAt/Cancel/Finish)", ev.name))
			continue
		}
		closed := false
		leaked := token.NoPos
		for _, later := range events[i+1:] {
			if later.kind == 0 && later.obj == ev.obj {
				break // next opening: new window
			}
			if later.kind == 1 && later.obj == ev.obj {
				closed = true
				break
			}
			if later.kind == 2 && leaked == token.NoPos {
				leaked = later.pos
			}
		}
		if leaked != token.NoPos && closed {
			report(ev.pos, "spans", fmt.Sprintf(
				"trace %s opened here can leak: a return path precedes its first End/EndAt/Cancel/Finish — defer the close or end it before returning", ev.name))
		} else if !closed {
			report(ev.pos, "spans", fmt.Sprintf(
				"trace %s re-opened here is never ended afterwards", ev.name))
		}
	}
}

// closerTarget returns the tracked object call closes, if any.
func closerTarget(pkg *Package, call *ast.CallExpr, tracked func(*ast.Ident) types.Object) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !spanClosers[sel.Sel.Name] {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return tracked(id)
}
