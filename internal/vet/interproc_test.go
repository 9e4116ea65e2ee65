package vet

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func TestGoldenLockOrder(t *testing.T)   { checkGolden(t, "lockorder", 0) }
func TestGoldenUnusedAllow(t *testing.T) { checkGolden(t, "unusedallow", 1) }

// TestAllowNearestAndMultiple covers the allow-table matching rules: two
// adjacent lines each carrying a trailing allow for the same check must
// both be consumed (nearest entry wins — under first-match the second
// line's entry would go stale), and one comment carrying two allows must
// suppress findings from both checks.
func TestAllowNearestAndMultiple(t *testing.T) {
	res := analyzeFixture(t, "allowmulti")
	for _, f := range res.Findings {
		t.Errorf("unexpected finding (stale or unmatched allow): %s", f)
	}
	type key struct {
		line  int
		check string
	}
	got := map[key]bool{}
	for _, s := range res.Suppressed {
		if s.Reason == "" {
			t.Errorf("suppression at line %d has no reason", s.Pos.Line)
		}
		got[key{s.Pos.Line, s.Check}] = true
	}
	for _, want := range []key{
		{13, "virtualtime"},
		{14, "virtualtime"},
		{19, "virtualtime"},
		{19, "determinism"},
	} {
		if !got[want] {
			t.Errorf("missing suppression [%s] at line %d (have %v)", want.check, want.line, got)
		}
	}
}

// TestPkgPathOfFallback covers both resolution tiers of pkgPathOf: the
// syntactic import-table fallback (plain, aliased, and alias-hidden base
// names) and the type-info tier (package name vs. a shadowing variable).
func TestPkgPathOfFallback(t *testing.T) {
	src := `package p

import (
	"time"
	tm "math/rand"
)

var _ = time.Now
var _ = tm.Int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{
		Files: []*ast.File{f},
		Info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}

	// Syntactic fallback (idents absent from Uses).
	if got := pkgPathOf(pkg, f, ast.NewIdent("time")); got != "time" {
		t.Errorf("plain import: got %q, want %q", got, "time")
	}
	if got := pkgPathOf(pkg, f, ast.NewIdent("tm")); got != "math/rand" {
		t.Errorf("aliased import: got %q, want %q", got, "math/rand")
	}
	if got := pkgPathOf(pkg, f, ast.NewIdent("rand")); got != "" {
		t.Errorf("alias hides base name: got %q, want \"\"", got)
	}
	if got := pkgPathOf(pkg, f, ast.NewIdent("fmt")); got != "" {
		t.Errorf("unimported name: got %q, want \"\"", got)
	}

	// Type-info tier: a PkgName resolves to its imported path and beats
	// the import table.
	id := ast.NewIdent("time")
	clockPkg := types.NewPackage("lambdafs/internal/clock", "clock")
	pkg.Info.Uses[id] = types.NewPkgName(token.NoPos, nil, "time", clockPkg)
	if got := pkgPathOf(pkg, f, id); got != "lambdafs/internal/clock" {
		t.Errorf("PkgName use: got %q, want %q", got, "lambdafs/internal/clock")
	}

	// A non-package object (local shadowing the import) must not fall
	// through to the import table.
	shadow := ast.NewIdent("time")
	pkg.Info.Uses[shadow] = types.NewVar(token.NoPos, nil, "time", types.Typ[types.Int])
	if got := pkgPathOf(pkg, f, shadow); got != "" {
		t.Errorf("shadowing var: got %q, want \"\"", got)
	}
}

// TestExprString covers the renderer used in lock keys and messages,
// including the %T degradation for shapes it does not special-case.
func TestExprString(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x", "x"},
		{"a.b.c", "a.b.c"},
		{"*p", "*p"},
		{"(x)", "(x)"},
		{"m[k]", "m[k]"},
		{"f(1, 2)", "f(…)"},
		{"a.m()[i]", "a.m(…)[i]"},
		{"struct{}{}", "*ast.CompositeLit"},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", c.src, err)
		}
		if got := exprString(e); got != c.want {
			t.Errorf("exprString(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestWriteJSON round-trips the machine-readable report for a fixture with
// a known finding profile.
func TestWriteJSON(t *testing.T) {
	res := analyzeFixture(t, "errcheck")
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Packages int `json:"packages"`
		Findings []struct {
			File  string `json:"file"`
			Line  int    `json:"line"`
			Check string `json:"check"`
			Msg   string `json:"msg"`
		} `json:"findings"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1", rep.Packages)
	}
	if rep.Counts["errcheck"] != len(rep.Findings) || len(rep.Findings) == 0 {
		t.Errorf("counts[errcheck] = %d, findings = %d; want equal and non-zero",
			rep.Counts["errcheck"], len(rep.Findings))
	}
	// Every registered check appears with an explicit count, even at zero.
	for _, name := range CheckNames {
		if _, ok := rep.Counts[name]; !ok {
			t.Errorf("counts missing check %q", name)
		}
	}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line == 0 || f.Check == "" || f.Msg == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}
