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
	"fig11/full":         "f8d52ec213df6a77beb2fae62785cf115c3892538026bd93041421d2f7e86049",
	"fig11/quick":        "89c6fb344f9dfada4421c7a65190bcae8e8340f38c2ff4245f4aca38f5507c7c",
	"fig11/tiny":         "650ed55543e2e4ebe91ffa4ce67416f2fc90f16c1c3358fb0984877b965fc45b",
	"fig12/full":         "65e0506818ce75decafe588dd6a53a3ede1360b7357f114a8e3dce3869b8675a",
	"fig12/quick":        "b2a5791164308f7385be184857a8f15f7da99608a992564b39dcd3c8daddc203",
	"fig12/tiny":         "15e347636e9a55511c6c3bb44c69d0af97466ffb243291d67ebf5d00caa98a7d",
	"fig13/full":         "91ecfce19dff6438243a546b19beebe00a6d87c577568995cbe7dee8a14a4809",
	"fig13/quick":        "98cd79a8ec82cdd677604391bb10c7a7eab1ebe108ae0f6ea82e6ed96f96cc1d",
	"fig13/tiny":         "9994d9eaeaeafcc2d2e2dfdbfd3381dfbc4c67dcaf87631b3df01693b2291a5d",
	"fig14/full":         "6debd521344cfcd1f477c96b6809c8e822b663a5a7f0c076fa3ebfa4425c803d",
	"fig14/quick":        "9b6c30fa3aa5ce630bf0e162af1412f818919dc93783f6eff76bb95ec8e6c4f8",
	"fig14/tiny":         "726b1e195417888e9d1953eea8633c89eae1c060f344c4d90ad7653a7cb03104",
	"ablation-rpc/full":  "f23d4c24fcd333dcacf6f45e180dd96415ee0984d20e400af35a8b2dd880d5d0",
	"ablation-rpc/quick": "f886dd728a1d58f17e6e7d1d8c5694f74e676159e8d7d9ca827ae2af9f8a36b1",
	"ablation-rpc/tiny":  "cdd7db6b5fb4dedeea1bfc5326006c1363bfb50f39704783d78c7eebc5412051",
}

var goldenSweepTiny = map[string]string{
	"fig11":        "6b12e22fe0589e916fb20412a4905a51e8646c4a35a46357233a042e25b68b20",
	"fig13":        "9c50acc959fd41dbe33a1ebdf560929edc38abfb4f9b96d955562b21414e06b5",
	"fig14":        "231c3d231dca3cf59a52ad0cfb19a3f246dd4e57a077a5f1e3b4cbc07e669601",
	"ablation-rpc": "8bd39945ea2c4d02d35c84e00613d447e93630f11527f8297557cb8383006d23",
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
	"fig8a": "3ff68e15250144d14e46e50143a506ad3c9382ab62d6dd9e84127fea24cfb2c9",
	"fig9":  "f9926252f80412c5a8e35a277fccb6124d59efa77fdd134cf4741891528b6dc6",
	"fig10": "a4603f2e42d984cb347f40239296f7975c8a02b2c4ae7266976486c8d3dac0d8",
	"fig15": "52c4a1a43fd2dc626967759dd986abd4ae0ff2871ed0788e73371d088ba5c3aa",
	"trace": "5fbe626988433eadd09fb55e82e790dab7840710253979d7fc09137266698bd3",
	"slo":   "06f76f8153d6bb8238ec7e228a6748495dcdc63cc424aa816c75ddae46406474",
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
const goldenTreeTestTiny = "7656b5682702f040c8c038ccea06e203c1f6dbd4eed8b3375554fe899c6daa88"

func TestTreeTestTablesTinyGolden(t *testing.T) {
	if got, out := sweepDigest(t, "fig16", Options{Scale: Tiny, Seed: 1}); got != goldenTreeTestTiny {
		t.Errorf("fig16: digest %s, golden %s; rendered:\n%s", got, goldenTreeTestTiny, out)
	}
}
