package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkErrcheck enforces error discipline inside internal/: a call whose
// result set includes an error must not be used as a bare expression
// statement. Dropping an error is sometimes right — then write `_ = f()`
// so the drop is visible in review. Deferred and go'd calls are statements
// of their own kind and are exempt, as are fmt's printers and the
// never-failing writers (*bytes.Buffer, *strings.Builder).
//
// No test sees this check's bug: the mutant row
// errcheck-prometheus-write-error-dropped (mutants_test.go)
// plants one, and only lambdafs-vet kills it.
func checkErrcheck(l *Loader, pkg *Package, report reporter) {
	if !strings.HasPrefix(pkg.Path, l.ModulePath+"/internal/") {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[call]
			if !ok {
				return true // no type info: stay silent, not noisy
			}
			if !returnsError(tv.Type, errType) {
				return true
			}
			if exemptErrDrop(pkg, file, call) {
				return true
			}
			report(call.Pos(), "errcheck", fmt.Sprintf(
				"%s returns an error that is silently dropped — handle it or write `_ = …` to make the drop explicit",
				exprString(call.Fun)))
			return true
		})
	}
}

// returnsError reports whether a call-result type includes error.
func returnsError(t types.Type, errType types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// exemptErrDrop exempts callees whose error is unfailing by contract:
// the fmt printers, and methods on *bytes.Buffer / *strings.Builder (their
// Write* methods are documented never to return a non-nil error).
func exemptErrDrop(pkg *Package, file *ast.File, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok && pkgPathOf(pkg, file, id) == "fmt" {
		return true
	}
	if s, ok := pkg.Info.Selections[sel]; ok {
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
			full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if full == "bytes.Buffer" || full == "strings.Builder" {
				return true
			}
		}
	}
	return false
}
