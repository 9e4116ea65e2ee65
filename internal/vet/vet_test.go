package vet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is the one Loader of the test binary: type-checking the
// standard library from source is most of what a fresh loader costs, and a
// loader memoizes every package it has checked.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func testLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// analyzeFixture runs the analyzer over one testdata/src package.
func analyzeFixture(t *testing.T, name string) *Result {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join(l.ModuleRoot, "internal", "vet", "testdata", "src", name)
	pkgs, err := l.LoadDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
	}
	return Analyze(l, pkgs)
}

var wantRe = regexp.MustCompile(`// want (\w+)`)

// wantLines parses the fixture's `// want <check>` expectation comments,
// returning line → check.
func wantLines(t *testing.T, name string) map[int]string {
	t.Helper()
	file := filepath.Join("testdata", "src", name, name+".go")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			want[i+1] = m[1]
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no // want expectations", name)
	}
	return want
}

// checkGolden asserts findings exactly match the fixture's expectations
// and that every //vet:allow suppression in it carried a reason.
func checkGolden(t *testing.T, name string, wantSuppressed int) {
	t.Helper()
	res := analyzeFixture(t, name)
	want := wantLines(t, name)

	got := map[int]string{}
	for _, f := range res.Findings {
		if prev, dup := got[f.Pos.Line]; dup {
			t.Errorf("line %d: multiple findings (%s, %s)", f.Pos.Line, prev, f.Check)
		}
		got[f.Pos.Line] = f.Check
	}
	for line, check := range want {
		if got[line] != check {
			t.Errorf("line %d: want finding [%s], got %q", line, check, got[line])
		}
	}
	for line, check := range got {
		if want[line] == "" {
			t.Errorf("line %d: unexpected finding [%s]", line, check)
		}
	}
	if len(res.Suppressed) != wantSuppressed {
		t.Errorf("suppressions = %d, want %d", len(res.Suppressed), wantSuppressed)
	}
	for _, s := range res.Suppressed {
		if s.Reason == "" {
			t.Errorf("suppression at line %d has no reason", s.Pos.Line)
		}
	}
}

func TestGoldenVirtualTime(t *testing.T) { checkGolden(t, "virtualtime", 3) }
func TestGoldenDeterminism(t *testing.T) { checkGolden(t, "determinism", 1) }
func TestGoldenLocks(t *testing.T)       { checkGolden(t, "locks", 1) }
func TestGoldenSpans(t *testing.T)       { checkGolden(t, "spans", 1) }
func TestGoldenErrcheck(t *testing.T)    { checkGolden(t, "errcheck", 1) }

// TestAllowWithoutReason asserts a bare //vet:allow silences the
// underlying finding but is itself reported.
func TestAllowWithoutReason(t *testing.T) {
	res := analyzeFixture(t, "allowreason")
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly the missing-reason finding", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "allow" || !strings.Contains(f.Msg, "without a reason") {
		t.Errorf("finding = %v, want [allow] …without a reason", f)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0].Check != "virtualtime" {
		t.Errorf("suppressed = %v, want one virtualtime suppression", res.Suppressed)
	}
}

// TestRepoIsClean is the self-test: lambdafs-vet ./... must exit clean on
// this repository, and every suppression in the codebase must carry a
// reason.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(l, pkgs)
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, s := range res.Suppressed {
		if s.Reason == "" {
			t.Errorf("suppression without reason: %s", s)
		}
	}
	if res.NumPackages < 10 {
		t.Errorf("analyzed %d packages, expected the whole module", res.NumPackages)
	}
}
