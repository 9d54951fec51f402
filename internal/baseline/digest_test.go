package baseline

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
)

// winnerRoutingDigests pins the SHA-256 of problem.WriteRouting for every
// emulated winner on three generated boards at scale 0.01. The digests were
// recorded on the binary-heap search engine; the radix queue that replaced
// it resolves equal-cost ties by the same canonical rule, so every routing
// must stay byte-identical. A mismatch means a change to the search, the
// baseline routers or the generator moved a "+TA" topology of Table II.
var winnerRoutingDigests = map[string][3]string{
	"synopsys01": {
		"e5cf4eef1bdc6462e5cc178641b04401313b448571ca7f2cd900228a1dd18d15",
		"49c3311359257dff5c47822308263ce3e5b1e48e8d5fb97ff63d4f63225f0bd0",
		"6f415d2e62053dc41256fe6bac43ffb17b910f753238d351a0b7e331d4c9a485",
	},
	"synopsys03": {
		"f7790282489a7ca5dd7f763bdc31144a6a9415949a22e51f1e52adfca0eec267",
		"4b6218bc4a3d85d1d35e7701236cbda1ebea410bc642ef12dab720a67f8b93e1",
		"560baee71f5d16063064e0f1ed845c6e105a93e7de1fcc0484b678fab42cc6cc",
	},
	"hidden02": {
		"ed72a6262b4678f60be47b04871a06b3d5e82f09811889f49ff7dad65ce9c464",
		"ca01d5d6ef99be84f2adf52a085ea2fc59c34a66d443467fb25a8e35a6fee13c",
		"a4d2a00dce8a6baf3143054dc1f6ab242a03e149aef4caac92c20db65bc4eca8",
	},
}

func TestWinnerRoutingDigests(t *testing.T) {
	for _, bench := range []string{"synopsys01", "synopsys03", "hidden02"} {
		cfg, err := gen.SuiteConfig(bench, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		in, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := winnerRoutingDigests[bench]
		for i, w := range Winners() {
			routes, err := w.Route(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, bench, err)
			}
			h := sha256.New()
			if err := problem.WriteRouting(h, routes); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[i] {
				t.Errorf("%s on %s: routing sha256 %s, want %s", w.Name, bench, got, want[i])
			}
		}
	}
}
