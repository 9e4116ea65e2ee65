package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the module-wide call graph the interprocedural check,
// lockorder, runs on. Like the rest of the analyzer it uses only
// the standard library's go/ast + go/types: nodes are keyed by the
// *types.Func object from Info.Defs, and because the Loader memoizes
// packages (every importer returns the same *types.Package), object
// identity holds across packages — a call in internal/core to an
// internal/ndb method resolves to the very node ndb's own declaration
// produced.
//
// Resolution rules:
//
//   - Direct calls (f(), pkg.F(), recv.Method()) resolve through
//     Info.Uses / Info.Selections.
//   - Interface method calls resolve by class-hierarchy analysis (CHA):
//     an edge to every analyzed concrete type that implements the
//     interface — sound over the module, which is the analysis universe.
//   - Calls through function values (fields, variables, parameters)
//     stay opaque: no edge. The check that consumes the graph is
//     calibrated for that (closures are flattened into their declaring
//     function, so a closure's body is still scanned — only the dynamic
//     dispatch to it is invisible).
//
// Function literals are flattened into their enclosing declaration: their
// calls and constructs count as the declaring function's. A closure runs
// on behalf of its creator, and for the disciplines vet enforces that is
// the useful attribution.
type FuncNode struct {
	Obj  *types.Func
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl

	// Calls holds the outgoing edges in source order. An interface call
	// contributes one edge per CHA-resolved implementation.
	Calls []CallSite
}

// CallSite is one outgoing call edge.
type CallSite struct {
	Pos      token.Pos
	Callee   *FuncNode // never nil (unresolved calls produce no site)
	ViaIface bool      // resolved by class-hierarchy analysis
}

// CallGraph indexes every function declaration across the analyzed
// packages.
type CallGraph struct {
	Nodes []*FuncNode // deterministic: package, file, then source order
	byObj map[*types.Func]*FuncNode
}

// displayName renders a node's function compactly for messages:
// "pkg.Func" or "(*pkg.Type).Method".
func (n *FuncNode) displayName() string {
	if n.Obj == nil {
		return n.Decl.Name.Name
	}
	full := n.Obj.FullName()
	// Strip the module-path qualifier: "lambdafs/internal/ndb.DB" reads
	// better as "ndb.DB" and fixture paths collapse the same way.
	if i := strings.LastIndex(full, "/"); i >= 0 {
		// FullName puts the path inside parens for methods; cutting at the
		// last slash keeps the "(*" prefix when present.
		prefix := ""
		if strings.HasPrefix(full, "(*") {
			prefix = "(*"
		} else if strings.HasPrefix(full, "(") {
			prefix = "("
		}
		return prefix + full[i+1:]
	}
	return full
}

// BuildCallGraph constructs the call graph over pkgs.
func BuildCallGraph(l *Loader, pkgs []*Package) *CallGraph {
	g := &CallGraph{byObj: map[*types.Func]*FuncNode{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := &FuncNode{Obj: obj, Pkg: pkg, File: file, Decl: fd}
				g.Nodes = append(g.Nodes, n)
				if obj != nil {
					g.byObj[obj] = n
				}
			}
		}
	}

	// Method index for CHA: every method node with its receiver's named
	// base type.
	type methodImpl struct {
		node  *FuncNode
		named *types.Named
	}
	var methods []methodImpl
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		sig, ok := n.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			methods = append(methods, methodImpl{n, named})
		}
	}
	resolveIface := func(iface *types.Interface, name string) []*FuncNode {
		var out []*FuncNode
		for _, m := range methods {
			if m.node.Obj.Name() != name {
				continue
			}
			if types.Implements(m.named, iface) ||
				types.Implements(types.NewPointer(m.named), iface) {
				out = append(out, m.node)
			}
		}
		return out
	}

	for _, n := range g.Nodes {
		n.Calls = collectCalls(g, n, resolveIface)
	}
	return g
}

// collectCalls extracts n's outgoing edges, flattening function literals.
func collectCalls(g *CallGraph, n *FuncNode, resolveIface func(*types.Interface, string) []*FuncNode) []CallSite {
	info := n.Pkg.Info
	var out []CallSite
	add := func(pos token.Pos, callee *FuncNode, viaIface bool) {
		if callee != nil {
			out = append(out, CallSite{Pos: pos, Callee: callee, ViaIface: viaIface})
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				add(call.Pos(), g.byObj[fn], false)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok {
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return true
				}
				recv := sel.Recv()
				if types.IsInterface(recv) {
					if iface, ok := recv.Underlying().(*types.Interface); ok {
						for _, impl := range resolveIface(iface, fn.Name()) {
							add(call.Pos(), impl, true)
						}
					}
				} else {
					add(call.Pos(), g.byObj[fn], false)
				}
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				// Qualified package-level call (otherpkg.F).
				add(call.Pos(), g.byObj[fn], false)
			}
		}
		return true
	})
	return out
}
