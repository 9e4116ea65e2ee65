// Package vet implements lambdafs-vet: a custom static analyzer, built
// purely on the standard library's go/ast, go/parser, go/token, and
// go/types (no golang.org/x/tools), that enforces the platform-level
// disciplines the λFS reproduction's evaluation rests on. It keeps only
// the checks whose bug no test catches: each names the mutant row
// (mutants_test.go) that plants such a bug and that only lambdafs-vet
// kills. A check whose rows a test killed was deleted for it: slorules
// (TestAlertCoverage) and metricnames (internal/bench's TestMetricNames).
//
//   - virtualtime: all latency and every wait flow through internal/clock.
//     Wall-clock time.Now/Sleep/After/Tick/NewTimer/NewTicker/Since/
//     AfterFunc are forbidden outside internal/clock — one stray
//     time.After silently decouples a component from simulated time and
//     skews every experiment that touches it. So are the scheduling
//     hazards clock.Sim cannot see: a raw channel send, receive, select or
//     range over a channel, clock.Idle, and a bare go statement. The host
//     drivers under cmd/, examples/ and benchmark/ are exempt from those.
//   - determinism: no global math/rand source, and every rand.New /
//     rand.NewSource must derive from a plumbed seed (an identifier whose
//     name mentions "seed"), so chaos episodes and benchmarks replay
//     byte-for-byte from a -seed / -chaosseed flag.
//   - locks: a mutex locked without a deferred unlock must not reach a
//     return statement while held.
//   - spans: every tracer span (trace.Ctx.Start) and trace
//     (trace.Tracer.StartTrace) opened in a function must be closed in
//     that function — deferred, or on every return path after it opens.
//     trace.Tracer.OpenSpans covers the spans that escape the function,
//     on the paths the traced tests take.
//   - errcheck: calls inside internal/ must not silently drop error
//     returns (an explicit `_ =` is allowed; defers and fmt printing are
//     exempt).
//   - lockorder: the global lock-acquisition-order graph (which mutexes
//     are acquired while which are held, propagated through the
//     module-wide call graph of callgraph.go) must be cycle-free — a
//     cycle is a latent deadlock. It reads the same per-function stream
//     of lock events as locks.
//
// Each check is one entry of the checks registry, and each hazard has one
// walk: a rule that two checks share reads one event stream.
//
// Findings can be suppressed with a `//vet:allow <check> <reason>`
// comment on the offending line (or the line above); several allows may
// share a line (`//vet:allow a r1 //vet:allow b r2`), and the entry
// nearest the finding wins. Suppressions must carry a reason — a bare
// //vet:allow is itself a finding — every suppression used is counted
// and reported, and a suppression that no longer suppresses anything is
// reported as stale, so the allowlist can only shrink to match reality.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Suppression is one //vet:allow comment that silenced a finding.
type Suppression struct {
	Pos    token.Position
	Check  string
	Reason string
	Msg    string // the suppressed finding's message
}

func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: allowed [%s] %s (reason: %s)",
		s.Pos.Filename, s.Pos.Line, s.Check, s.Msg, s.Reason)
}

// Result is the outcome of one analysis run.
type Result struct {
	Findings    []Finding
	Suppressed  []Suppression
	NumPackages int
}

// reporter records one finding; Analyze matches it against the
// //vet:allow table.
type reporter func(pos token.Pos, check, msg string)

// checks is the registry, in presentation order. Every check sees the
// analyzed packages and the module call graph built over them.
var checks = []struct {
	name string
	run  func(l *Loader, pkgs []*Package, g *CallGraph, report reporter)
}{
	{"virtualtime", perPackage(checkVirtualTime)},
	{"determinism", perPackage(checkDeterminism)},
	{"locks", checkLocks},
	{"spans", perPackage(checkSpans)},
	{"errcheck", perPackage(checkErrcheck)},
	{"lockorder", checkLockOrder},
}

// CheckNames lists the analyzer's checks in presentation order.
var CheckNames = func() []string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.name
	}
	return names
}()

// perPackage lifts a check that looks at one package at a time.
func perPackage(check func(l *Loader, pkg *Package, report reporter)) func(*Loader, []*Package, *CallGraph, reporter) {
	return func(l *Loader, pkgs []*Package, _ *CallGraph, report reporter) {
		for _, pkg := range pkgs {
			check(l, pkg, report)
		}
	}
}

// Analyze runs every check over the given packages and the call graph
// built over all of them. The //vet:allow table is global, so a
// suppression is matched wherever the reporting check runs from.
func Analyze(l *Loader, pkgs []*Package) *Result {
	res := &Result{NumPackages: len(pkgs)}
	allows := collectAllows(l, pkgs)
	report := func(pos token.Pos, check, msg string) {
		p := l.Fset.Position(pos)
		if a := allows.match(p, check); a != nil {
			a.used = true
			res.Suppressed = append(res.Suppressed, Suppression{
				Pos: p, Check: check, Reason: a.reason, Msg: msg,
			})
			return
		}
		res.Findings = append(res.Findings, Finding{Pos: p, Check: check, Msg: msg})
	}
	g := BuildCallGraph(l, pkgs)
	for _, c := range checks {
		c.run(l, pkgs, g, report)
	}
	// Allowlist hygiene: a suppression without a reason is a finding, and
	// so is one that no longer suppresses anything (the stale entry would
	// otherwise silently mask a future regression at that line).
	for _, a := range allows.entries {
		switch {
		case a.reason == "":
			res.Findings = append(res.Findings, Finding{
				Pos: a.pos, Check: "allow",
				Msg: "//vet:allow suppression without a reason — state why the rule does not apply",
			})
		case !a.used:
			res.Findings = append(res.Findings, Finding{
				Pos: a.pos, Check: "allow",
				Msg: fmt.Sprintf("unused //vet:allow %s — nothing was suppressed here; delete the stale entry", a.check),
			})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool { return posLess(res.Findings[i].Pos, res.Findings[j].Pos) })
	sort.Slice(res.Suppressed, func(i, j int) bool { return posLess(res.Suppressed[i].Pos, res.Suppressed[j].Pos) })
	return res
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// CheckRepo loads every package of the module at root and analyzes it —
// the programmatic equivalent of `lambdafs-vet ./...`.
func CheckRepo(root string) (*Result, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	return Analyze(l, pkgs), nil
}

// ---------------------------------------------------------------------------
// //vet:allow suppression comments.

type allowEntry struct {
	pos    token.Position
	file   string
	line   int
	check  string
	reason string
	used   bool
}

type allowTable struct {
	entries []*allowEntry
}

// match returns the entry suppressing check at p: an allow comment on the
// same line (trailing comment) or the line above (standalone comment).
// The nearest entry wins — a same-line allow beats a line-above one, so
// adjacent lines can each carry their own suppression for the same check.
func (t *allowTable) match(p token.Position, check string) *allowEntry {
	var above *allowEntry
	for _, a := range t.entries {
		if a.file != p.Filename || a.check != check {
			continue
		}
		if a.line == p.Line {
			return a
		}
		if a.line == p.Line-1 && above == nil {
			above = a
		}
	}
	return above
}

// collectAllows parses every //vet:allow comment across the analyzed
// packages into one table. A single comment may carry several entries
// (`//vet:allow a reason //vet:allow b reason`) so one line can suppress
// findings from different checks.
func collectAllows(l *Loader, pkgs []*Package) *allowTable {
	t := &allowTable{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//vet:allow") {
						continue
					}
					pos := l.Fset.Position(c.Pos())
					for _, part := range strings.Split(c.Text, "//vet:allow")[1:] {
						fields := strings.Fields(part)
						e := &allowEntry{pos: pos, file: pos.Filename, line: pos.Line}
						if len(fields) > 0 {
							e.check = fields[0]
							e.reason = strings.Join(fields[1:], " ")
						}
						t.entries = append(t.entries, e)
					}
				}
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Shared syntactic helpers.

// pkgPathOf resolves ident (the X of a selector) to the import path of the
// package it names, using type info when available and the file's import
// table as fallback.
func pkgPathOf(pkg *Package, file *ast.File, ident *ast.Ident) string {
	if obj, ok := pkg.Info.Uses[ident]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		if obj != nil {
			// The ident resolves to something other than a package
			// (a local variable shadowing "time", say).
			return ""
		}
	}
	// Syntactic fallback: match against the file's imports by name.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path
		}
	}
	return ""
}

// exprString renders a (small) expression as source text for lock keys and
// messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(…)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
