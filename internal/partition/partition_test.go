package partition

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"lambdafs/internal/namespace"
)

func TestDeterministic(t *testing.T) {
	a := NewRing(8, 0)
	b := NewRing(8, 0)
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/dir%d/file", i)
		if a.DeploymentForPath(p) != b.DeploymentForPath(p) {
			t.Fatalf("ring not deterministic for %q", p)
		}
	}
}

func TestSiblingsColocate(t *testing.T) {
	r := NewRing(16, 0)
	for d := 0; d < 50; d++ {
		dir := fmt.Sprintf("/data/set%d", d)
		want := r.DeploymentForParent(dir)
		for f := 0; f < 20; f++ {
			p := fmt.Sprintf("%s/file%d", dir, f)
			if got := r.DeploymentForPath(p); got != want {
				t.Fatalf("sibling %q mapped to %d, dir owner is %d", p, got, want)
			}
		}
	}
}

// TestRouteIsOpAware pins the one routing decision: a listing lives where
// its children live, everything else where the path's own metadata does.
func TestRouteIsOpAware(t *testing.T) {
	r := NewRing(16, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := ""
		for d := rng.Intn(5); d >= 0; d-- {
			p += fmt.Sprintf("/n%d", rng.Intn(50))
		}
		if got, want := r.Route(namespace.OpLs, p), r.DeploymentForPath(p+"/x"); got != want {
			t.Fatalf("ls %q routed to %d, its children live on %d", p, got, want)
		}
		for op := namespace.OpType(0); int(op) < namespace.NumOps; op++ {
			if op == namespace.OpLs {
				continue
			}
			if got, want := r.Route(op, p), r.DeploymentForPath(p); got != want {
				t.Fatalf("%v %q routed to %d, path owner is %d", op, p, got, want)
			}
		}
	}
	if got, want := r.Route(namespace.OpLs, "/"), r.DeploymentForPath("/x"); got != want {
		t.Fatalf("ls / routed to %d, top-level entries live on %d", got, want)
	}
}

func TestRootHashesBySelf(t *testing.T) {
	r := NewRing(4, 0)
	if got := r.DeploymentForPath("/"); got != r.DeploymentForParent("/") {
		t.Fatalf("root mapping inconsistent: %d", got)
	}
	// Top-level entries hash by "/" too.
	if r.DeploymentForPath("/a") != r.DeploymentForParent("/") {
		t.Fatal("top-level entry should hash by root parent")
	}
}

func TestInRange(t *testing.T) {
	f := func(n uint8, path string) bool {
		deployments := int(n%32) + 1
		r := NewRing(deployments, 4)
		d := r.DeploymentForPath("/" + path)
		return d >= 0 && d < deployments
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionRoughlyUniform(t *testing.T) {
	const deployments = 10
	const dirs = 20000
	r := NewRing(deployments, 0)
	counts := make([]int, deployments)
	for i := 0; i < dirs; i++ {
		counts[r.DeploymentForParent(fmt.Sprintf("/bench/dir-%d", i))]++
	}
	want := float64(dirs) / deployments
	for d, c := range counts {
		if float64(c) < want*0.5 || float64(c) > want*1.5 {
			t.Fatalf("deployment %d owns %d of %d dirs (want ~%.0f): skewed", d, c, dirs, want)
		}
	}
}

func TestSubtreeDeployments(t *testing.T) {
	r := NewRing(8, 0)
	dirs := []string{"/a", "/a/b", "/a/b/c"}
	got := r.DeploymentsForSubtree(dirs)
	if len(got) == 0 {
		t.Fatal("no deployments for subtree")
	}
	seen := map[int]bool{}
	for _, d := range got {
		if d < 0 || d >= 8 {
			t.Fatalf("deployment %d out of range", d)
		}
		if seen[d] {
			t.Fatalf("duplicate deployment %d", d)
		}
		seen[d] = true
	}
	// Both mappings of each dir must be included: where it is cached and
	// where its children and listing are.
	for _, dir := range dirs {
		if !seen[r.DeploymentForPath(dir)] || !seen[r.Route(namespace.OpLs, dir)] {
			t.Fatalf("an owner of %q is missing from subtree set %v", dir, got)
		}
	}
}

func TestAllDeployments(t *testing.T) {
	if r := NewRing(5, 0); r.Deployments() != 5 {
		t.Fatal("Deployments() wrong")
	}
}

func TestSingleDeployment(t *testing.T) {
	r := NewRing(1, 0)
	for i := 0; i < 20; i++ {
		if d := r.DeploymentForPath(fmt.Sprintf("/x/%d", i)); d != 0 {
			t.Fatalf("single-deployment ring returned %d", d)
		}
	}
}

func TestNewRingPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) should panic")
		}
	}()
	NewRing(0, 0)
}
