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
	"ablation-rpc/full":  "7c4deb061ddfe1ff255ef8c8de933b2a8c5d6329fe4dd01815acf916c03d1ea8",
	"ablation-rpc/quick": "361106bed6783e5cc4968f107b23f0e47f73feb51c75ab7abfa454d695797a38",
	"ablation-rpc/tiny":  "32db15ec87bbb823f147b605d0885e4b73a7c1dd737cbfa877a5d876468d2555",
}

var goldenSweepTiny = map[string]string{
	"fig11":        "89fd77a00e72acaf75db231849fe2c41e3e114c56791065abad452bb7a948caf",
	"fig13":        "d3f34bc178d139da2893b09543a379e9a9dbad738ccbc9b5dab760225b980156",
	"fig14":        "196e58d97eab14ad813ec19627340f830c7cda39772b59757f54202e3cbad882",
	"ablation-rpc": "2f0ec049def63c2d94320e5e54fc2d3ec9a0878793a5b95deaa4096f75aab372",
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
	"fig8a": "d1af930a49729dd1be177bf46519122d128d8acc41e53cba131e28f0bc91dad0",
	"fig9":  "b1c91731df83f93ce2823c9a95bbf050a170f812b75d60d0ac77678f498cc1e7",
	"fig10": "9746360cc588e7dfe8d11b9a760e7dea70da7b1cbd9cde23c26b7d3f81ce725c",
	"fig15": "0b393fa1e49803aeade42c67060055a6986e4a1695ca3cc29d3cf0c17102229a",
	"trace": "3ca9e3a2199a7e036c42c06d4ccb26675f53747205a2d871982d18c85a37a0a6",
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
const goldenTreeTestTiny = "4276271b647738840681a16140f498560e12974cd43b55d1a8cc654922a48814"

func TestTreeTestTablesTinyGolden(t *testing.T) {
	if got, out := sweepDigest(t, "fig16", Options{Scale: Tiny, Seed: 1}); got != goldenTreeTestTiny {
		t.Errorf("fig16: digest %s, golden %s; rendered:\n%s", got, goldenTreeTestTiny, out)
	}
}
