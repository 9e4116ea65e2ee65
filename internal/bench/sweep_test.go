package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"lambdafs/internal/namespace"
)

// The §5.3 sweeps (fig11–fig14, ablation-rpc) are pinned by sha256 digests
// of their rendered tables. Two sets:
//
//   - goldenSweepFake: every sweep at every scale, each point answered by
//     fakeMicro. It takes milliseconds and is the only pin on fig12 (whose
//     real tiny and quick runs do not finish: ROADMAP item 3(c)) and on the
//     full-scale layouts.
//   - goldenSweepTiny: real tiny runs of the sweeps that finish, which also
//     pins what each system and op is built from.
//
// A refactor of the sweep machinery must leave both unedited.

var goldenSweepFake = map[string]string{
	"fig11/full":         "07fc202e64ea4911350d56aac4a896da0a05d3963af863d8c9d5e50eeb097e1a",
	"fig11/quick":        "554d0715bbce074e32e8067cf2a15adb542123b9608c23a1de0d63c25f41d42a",
	"fig11/tiny":         "90a902f8e088c7e737b44c76c673641044cb05f80be4a9ee45b46b1ef8404ad5",
	"fig12/full":         "c98266d98be104450d1f56f013943798a3dc0aaa162efdfcb4aacd483a505469",
	"fig12/quick":        "a4a94f8623d01810d3fa3dbe4488697cf01fbd8984f2887ae4a47931ddeeffcc",
	"fig12/tiny":         "4e497565d3c4bb9bbfc83b30a51aef10b7071e64f300047e8fbd193f736579ba",
	"fig13/full":         "f97159750a949e70af9d5ce552ba6c212b08a342dfce83b983266bf02fbe6b5d",
	"fig13/quick":        "140170d4faa5b5f6583aa3362bb27e2e51905c6f46a35ffb46ef206556fcfaf5",
	"fig13/tiny":         "6ea04b80bf8003bbb9ced56f7916b0f73e20cb04d73cae8913c09e3ac018a69b",
	"fig14/full":         "0ad3cf0aa3cc0c952b6bfe24896809e107d39f24610833eb1798f99934e4f884",
	"fig14/quick":        "204cca4f79a85cd5c7671903cd76a8309fe91b1a23faf8e705c7349bf153468a",
	"fig14/tiny":         "3e889aff9bfd9ee935c006161802fa2e2a6a0ae278dfeaae014f3ccdf7148cdb",
	"ablation-rpc/full":  "41c43967c25fdf0fd399ff4ddaaa6cde202a231817ab0fe8463e883e62318868",
	"ablation-rpc/quick": "7a115cbe2dda2448f737d2d8a0f1d01ef6e4b87fa97e9a7d84a342539cc00257",
	"ablation-rpc/tiny":  "c894e2b417f4e0275279b44092f8290d3b2a0d93128edd3fb81a38c0236ef3fd",
}

var goldenSweepTiny = map[string]string{
	"fig11":        "1aa95dd7ddd3ae8dc0d251bac4eff8c7e270623db23fc1864c3e5216e50d7129",
	"fig13":        "ee61deae917b9a043e20ecff91003b2a354430969e184ec4e6d1ba1469a1f869",
	"fig14":        "1f694b83f09a5d78cbdd838c86117b52429b5f260b0d4e6d15e3eff87bb27790",
	"ablation-rpc": "0c6ecab7fc347e34cffb000ec6bd3ba8c7e88d65efb5f22e20ac197a6de59f9a",
}

// fakeMicro stands in for runMicro: a result that is a pure function of
// (system name, op, clients, vCPU, ops/client). Throughputs span fmtOps'
// three ranges and are sometimes zero, so every cell format and every
// conditional note shows up in some table.
func fakeMicro(_ Options, sys microSystem, op namespace.OpType, clients, vcpus, per int) microResult {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", sys.name, op, clients, vcpus, per)
	x := h.Sum64()
	r := microResult{
		throughput: math.Pow(10, float64(x%700)/100),
		meanLat:    time.Duration(math.Pow(10, float64(x>>16%700)/100+3)),
		costPerSec: float64(x>>32%1000+1) / 100,
	}
	if x>>48%11 == 0 {
		r.throughput = 0
	}
	return r
}

// sweepDigest runs the named experiment and hashes what it printed.
func sweepDigest(t *testing.T, name string, opts Options) (string, string) {
	t.Helper()
	e, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %q missing", name)
	}
	var out bytes.Buffer
	opts.Out = &out
	e.Run(opts)
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:]), out.String()
}

func TestSweepTablesGolden(t *testing.T) {
	defer func(run func(Options, microSystem, namespace.OpType, int, int, int) microResult) {
		microPoint = run
	}(microPoint)
	microPoint = fakeMicro
	for _, name := range []string{"fig11", "fig12", "fig13", "fig14", "ablation-rpc"} {
		for _, scale := range []Scale{Full, Quick, Tiny} {
			key := name + "/" + scale.String()
			if got, out := sweepDigest(t, name, Options{Scale: scale, Seed: 1}); got != goldenSweepFake[key] {
				t.Errorf("%s: digest %s, golden %s; rendered:\n%s", key, got, goldenSweepFake[key], out)
			}
		}
	}
}

func TestSweepTinyRunsGolden(t *testing.T) {
	for _, name := range []string{"fig11", "fig13", "fig14", "ablation-rpc"} {
		if got, out := sweepDigest(t, name, Options{Scale: Tiny, Seed: 1}); got != goldenSweepTiny[name] {
			t.Errorf("%s: digest %s, golden %s; rendered:\n%s", name, got, goldenSweepTiny[name], out)
		}
	}
}

// goldenSubtreeTiny pins the tables of the experiments that time one
// directory mv or delete (Table 3, the batch-size ablation): real tiny runs.
var goldenSubtreeTiny = map[string]string{
	"tab3":           "b0274be0eb45ee80792d09d768cd17b21758db0c60125be94089e24f01f163d1",
	"ablation-batch": "5da258a7162f265a91472ec937f0ae79b8787ec4038a8fdabf5939d70c3cd78c",
}

func TestSubtreeTablesTinyGolden(t *testing.T) {
	for _, name := range []string{"tab3", "ablation-batch"} {
		if got, out := sweepDigest(t, name, Options{Scale: Tiny, Seed: 1}); got != goldenSubtreeTiny[name] {
			t.Errorf("%s: digest %s, golden %s; rendered:\n%s", name, got, goldenSubtreeTiny[name], out)
		}
	}
}

// goldenLambdaTiny pins the real tiny tables of the λFS experiments that no
// other golden covers: the Spotify runs (Figures 8–10 and 15), the trace
// decomposition and the live SLO deployment. Each builds its own λFS
// deployment, so these digests hold the deployment itself fixed.
var goldenLambdaTiny = map[string]string{
	"fig8a": "1cf0a0bb6ad3dbb89d01681dc6647267dd451cf44fcd8fa78e82c8aa58d21522",
	"fig9":  "05139dccc9523cbf0f2a96bf6bdf672b1c84df0ab91a96f8914412afa7414db8",
	"fig10": "60674a119a0a317152491da89f0a32e895a2d184848ffa821286455494708741",
	"fig15": "363e797bea82c231b8a70f674660ae74c66b30ec3e715337e8152f3963e66953",
	"trace": "014486bb4c8f117138d3a218a207f2f9d97886987a6206dccf1023781ba823b8",
	"slo":   "22bc16d2e2f6ff76ca252ea9ff82f991170216b841ef198cb52a2e55447d445e",
}

func TestLambdaTablesTinyGolden(t *testing.T) {
	for _, name := range []string{"fig8a", "fig9", "fig10", "fig15", "trace", "slo"} {
		if got, out := sweepDigest(t, name, Options{Scale: Tiny, Seed: 1}); got != goldenLambdaTiny[name] {
			t.Errorf("%s: digest %s, golden %s; rendered:\n%s", name, got, goldenLambdaTiny[name], out)
		}
	}
}

// goldenTreeTestTiny pins Figure 16's real tiny tables: IndexFS and
// λIndexFS under tree-test, variable and fixed sizes.
const goldenTreeTestTiny = "1ebbbc6f2515b3355137d96081c64299cca059913c66a0ea149eb5d30da5bda2"

func TestTreeTestTablesTinyGolden(t *testing.T) {
	if got, out := sweepDigest(t, "fig16", Options{Scale: Tiny, Seed: 1}); got != goldenTreeTestTiny {
		t.Errorf("fig16: digest %s, golden %s; rendered:\n%s", got, goldenTreeTestTiny, out)
	}
}
