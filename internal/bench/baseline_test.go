package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRoutesCommittedBaselines pins `-check FILE` dispatch: each
// committed BENCH_*.json reaches the comparer of its own experiment, and
// a file whose schema no gate knows is rejected naming the known schemas
// and the regenerate command.
func TestCheckRoutesCommittedBaselines(t *testing.T) {
	for _, name := range []string{"hotpath", "restart", "scale"} {
		k, err := baselineKindOf(filepath.Join("..", "..", "BENCH_"+name+".json"))
		if err != nil {
			t.Errorf("BENCH_%s.json: %v", name, err)
			continue
		}
		if k.name != name {
			t.Errorf("BENCH_%s.json routed to the %s gate", name, k.name)
		}
	}

	path := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(path, []byte(`{"schema":"lambdafs-hotpath-baseline/v2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := CheckBaseline(path, Options{})
	if err == nil {
		t.Fatal("unknown schema accepted")
	}
	for _, want := range []string{HotpathSchema, RestartSchema, ScaleSchema, "-baseline hotpath|restart|scale"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}
