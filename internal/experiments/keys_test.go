package experiments

import (
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// TestCacheKeysPinned pins the result-cache key (OptionsHash) and the
// warmup-group key (WarmupKey) of representative runs to literal values.
// Every stored result and warmup snapshot is addressed by these hashes, so
// a refactor that changes the JSON encoding of Options, its normalization
// or the hash-form rewrite of file specs silently orphans every cache on
// disk. A deliberate change bumps resultCacheVersion (or SnapshotVersion)
// and re-pins these values in the same commit.
func TestCacheKeysPinned(t *testing.T) {
	defaults := engine.DefaultOptions("403.gcc")

	sweep := engine.DefaultOptions("433.milc")
	sweep.Page = mem.Page4M
	sweep.L2PF = prefetch.MustSpec("bo:badscore=5,roundmax=50")
	sweep.Instructions = 200_000
	sweep.Warmup = 50_000

	duel := engine.DefaultOptions("429.mcf")
	duel.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=offset.d~4,period=512")
	duel.Warmup = 20_000

	hetero := engine.DefaultOptions("")
	hetero.Workloads = []trace.Spec{
		trace.MustSpec("gups:footprint=64mb"),
		trace.MustSpec("stream:stride=128"),
		{Name: "470.lbm"},
	}
	hetero.Cores = 4
	hetero.L2PF = prefetch.MustSpec("sbp")
	hetero.L1PF = prefetch.MustSpec("none")
	hetero.Warmup = 30_000

	file := engine.DefaultOptions("")
	file.Workloads = []trace.Spec{trace.MustSpec("file:sha=" +
		"3f6c2a8e9b1d4c7a0e5f8b2d6a9c3e1f7b4d0a8c2e6f9b3d5a1c7e0f4b8d2a6c")}
	file.L2PF = prefetch.MustSpec("offset:d=8")
	file.Warmup = 10_000

	cases := []struct {
		name      string
		opts      engine.Options
		hash      string
		warmupKey string // "" pins that the run has no warmup group
	}{
		{"defaults", defaults,
			"3071560ccf6f99b84f2e8d21dd09e3f14f1668462eec61bc6e444f629b692e7a",
			""},
		{"bo-param-sweep", sweep,
			"7e78e721c53ad7588c4c603012cb2690223890e752ddd411b3a2d7831343c19a",
			"ab9661fddf0ab735c876e65c22308fdafc907cd1d8cdf6f0e30fe85719a4c48a"},
		{"duel-quoted-subspec", duel,
			"7dc2fa5b95519119d3632868ba1424f4e81efbaf6624ea94f165715d194ec75c",
			"95c5d623839520ffe6a64b3310a3d8441290c4f73130edac10cdb690f6430e68"},
		{"4-core-heterogeneous", hetero,
			"3fda4fa0e02c919fbc696049fe381e70937542534dc5af121a9ea95e079287a4",
			"f89848dec1b5098c3e6d209da8a5d3445de6c9866b30556e9ff1479e1264b284"},
		{"file-hash-spec", file,
			"d4ec4a4533dae5d34deed538207e8fdd589b0564eda2790a44fe2b6c122cf41f",
			"4f41cc51c5e4ac1e72580c936e189bdb1bbde1e2bea92837bc663e4b2f02e3b3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := OptionsHash(c.opts); got != c.hash {
				t.Errorf("OptionsHash = %s, want %s", got, c.hash)
			}
			got, err := WarmupKey(c.opts)
			if c.warmupKey == "" {
				if err == nil {
					t.Errorf("WarmupKey = %s, want an error (no warmup region)", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.warmupKey {
				t.Errorf("WarmupKey = %s, want %s", got, c.warmupKey)
			}
		})
	}
}
