package tdm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tdmroute/internal/gen"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/stats"
)

// lrUpdateFixture is one topology of the multiplier-update equivalence suite.
type lrUpdateFixture struct {
	name   string
	in     *problem.Instance
	routes problem.Routing
}

// lrUpdateFixtures returns routed generator-suite boards plus a few random
// topologies, small enough to run hundreds of LR iterations per option set.
func lrUpdateFixtures(t testing.TB) []lrUpdateFixture {
	t.Helper()
	var out []lrUpdateFixture
	for _, name := range []string{"synopsys01", "hidden01"} {
		cfg, err := gen.SuiteConfig(name, 0.004)
		if err != nil {
			t.Fatal(err)
		}
		in, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		routes, _, err := route.Route(context.Background(), in, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lrUpdateFixture{cfg.Name, in, routes})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		in, routes := randomAssignInstance(rng)
		out = append(out, lrUpdateFixture{fmt.Sprintf("rand%d", i), in, routes})
	}
	return out
}

// lrUpdateHits counts how often each exact fast path of lrKernel applies.
type lrUpdateHits struct{ clamp, saturated, inlinePow int }

// count classifies the coming update of every group of s without touching
// the state (zscore is read-only).
func (h *lrUpdateHits) count(s *lrState, z float64) {
	if z <= 0 {
		return
	}
	kn := newLRKernel(s.opt.Alpha, s.opt.Beta)
	for gi := range s.lambda {
		norm := s.grpTDM[gi] / z
		if kn.certainClamp(norm, s.lambda[gi]) {
			h.clamp++
			continue
		}
		x := s.windows.zscore(gi, norm)
		if t := kn.beta * x; x != 0 && kn.satFast && math.Abs(t) >= sigmoidSat {
			h.saturated++
		}
		if k := kn.exponent(x); norm >= 0x1p-200 && norm < 1 && k >= 1 && k <= 3 {
			h.inlinePow++
		}
	}
}

// TestUpdateMultipliersMatchesOracle runs the production update and the
// verbatim pre-fast-path oracle side by side over identical states and
// requires every λ to agree bit for bit after every iteration, across the
// fast-path gates (Alpha on both sides of 1 and 17), both Beta values,
// worker counts, and cold and warm starts. It also requires each fast path
// to have fired somewhere, so the suite cannot pass vacuously.
func TestUpdateMultipliersMatchesOracle(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 150
	}
	var hits lrUpdateHits
	for _, fx := range lrUpdateFixtures(t) {
		// A converged λ from a plain run seeds the warm starts.
		var warm []float64
		RunLR(context.Background(), fx.in, fx.routes, Options{MaxIter: 60, CaptureLambda: func(l []float64) { warm = l }})
		for _, workers := range []int{1, 4} {
			for _, alpha := range []float64{0.5, 1, 3, 20} {
				for _, beta := range []float64{1, 10} {
					for _, warmStart := range []bool{false, true} {
						opt := Options{Workers: workers, Alpha: alpha, Beta: beta}
						if warmStart {
							opt.WarmLambda = warm
						}
						opt = opt.withDefaults()
						name := fmt.Sprintf("%s/w%d/a%g/b%g/warm=%v", fx.name, workers, alpha, beta, warmStart)
						checkUpdateAgainstOracle(t, name, fx, opt, iters, &hits)
					}
				}
			}
		}
	}
	t.Logf("fast-path hits: certain clamp %d, saturated Sigmoid %d, inlined Pow %d", hits.clamp, hits.saturated, hits.inlinePow)
	if hits.clamp == 0 || hits.saturated == 0 || hits.inlinePow == 0 {
		t.Fatalf("a fast path never fired (%+v): the suite no longer covers it", hits)
	}
}

func checkUpdateAgainstOracle(t *testing.T, name string, fx lrUpdateFixture, opt Options, iters int, hits *lrUpdateHits) {
	t.Helper()
	fast := newLRState(fx.in, fx.routes, opt)
	ref := newLRState(fx.in, fx.routes, opt)
	for it := 0; it < iters; it++ {
		fast.computePi()
		ref.computePi()
		lbF, lbR := fast.solveLRS(), ref.solveLRS()
		zF, zR := fast.groupTDMs(), ref.groupTDMs()
		if !sameFloat(zF, zR) || !sameFloat(lbF, lbR) {
			t.Fatalf("%s iter %d: z/lb %v/%v vs oracle %v/%v", name, it, zF, lbF, zR, lbR)
		}
		hits.count(fast, zF)
		fast.updateMultipliers(zF)
		ref.updateMultipliersOracle(zR)
		for gi := range fast.lambda {
			if !sameFloat(fast.lambda[gi], ref.lambda[gi]) {
				t.Fatalf("%s iter %d: λ[%d] = %v (%#x), oracle %v (%#x)", name, it, gi,
					fast.lambda[gi], math.Float64bits(fast.lambda[gi]), ref.lambda[gi], math.Float64bits(ref.lambda[gi]))
			}
		}
	}
	fw, rw := fast.windows, ref.windows
	for gi := range fw.sum {
		if fw.count[gi] != rw.count[gi] || fw.head[gi] != rw.head[gi] ||
			!sameFloat(fw.sum[gi], rw.sum[gi]) || !sameFloat(fw.sumSq[gi], rw.sumSq[gi]) {
			t.Fatalf("%s: window of group %d diverged from the oracle", name, gi)
		}
	}
}

// TestSigmoidSaturation pins the two saturation facts the kernel relies on:
// Sigmoid is exactly 1 from sigmoidSat up, and below −sigmoidSat it is too
// small to move k = (α−1)·Sigmoid+1 off 1 for any α ≤ satAlphaMax.
func TestSigmoidSaturation(t *testing.T) {
	for _, x := range []float64{sigmoidSat, math.Nextafter(sigmoidSat, math.Inf(1)), 41, 1e3, 1e300, math.Inf(1)} {
		if s := stats.Sigmoid(x); s != 1 {
			t.Errorf("Sigmoid(%v) = %v, want exactly 1", x, s)
		}
	}
	if s := stats.Sigmoid(-sigmoidSat); (satAlphaMax-1)*s >= 0x1p-53 {
		t.Errorf("(α−1)·Sigmoid(−%d) = %v reaches half an ulp of 1", sigmoidSat, (satAlphaMax-1)*s)
	}
	for _, x := range []float64{-sigmoidSat, math.Nextafter(-sigmoidSat, math.Inf(-1)), -41, -1e3, math.Inf(-1)} {
		for _, alpha := range []float64{1, 1.5, 3, 10, satAlphaMax} {
			if k := (alpha-1)*stats.Sigmoid(x) + 1; k != 1 {
				t.Errorf("α=%v x=%v: k = %v, want exactly 1", alpha, x, k)
			}
		}
	}
	// Around both saturation edges, the kernel's k equals the plain formula.
	for _, alpha := range []float64{0.5, 1, 2.5, 3, satAlphaMax, 20} {
		kn := newLRKernel(alpha, 1)
		for _, edge := range []float64{sigmoidSat, -sigmoidSat} {
			for _, x := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 2*edge), 2 * edge} {
				want := (alpha-1)*stats.Sigmoid(x) + 1
				if got := kn.exponent(x); !sameFloat(got, want) {
					t.Errorf("α=%v x=%v: exponent %v, want %v", alpha, x, got, want)
				}
			}
		}
	}
}

// TestLRPowMatchesMathPow pins the inlined Pow against math.Pow on the edges
// of its domain and on a dense log-uniform sample inside it.
func TestLRPowMatchesMathPow(t *testing.T) {
	lo := 0x1p-200
	xs := []float64{1, math.Nextafter(1, 0), lo, math.Nextafter(lo, 0), math.Nextafter(lo, 1),
		1e-300, 5e-324, 0, 0.5, 0.3, 1e-10, 0.999999}
	mid := 2.5
	ys := []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, 2,
		mid, math.Nextafter(mid, 0), math.Nextafter(mid, 3), 3, math.Nextafter(3, 4), 1.25, 2.75}
	for _, x := range xs {
		for _, y := range ys {
			if got, want := lrPow(x, y), math.Pow(x, y); !sameFloat(got, want) {
				t.Errorf("lrPow(%v, %v) = %v, math.Pow = %v", x, y, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		x := math.Exp2(-200 * rng.Float64())
		y := 1 + 2*rng.Float64()
		if got, want := lrPow(x, y), math.Pow(x, y); !sameFloat(got, want) {
			t.Fatalf("lrPow(%v, %v) = %v, math.Pow = %v", x, y, got, want)
		}
	}
}

// lrUpdatePlain is the per-group update of Eqs. (15)–(16) written out with
// no fast path: λ·Pow(norm, (α−1)·Sigmoid(β·x)+1), clamped at minLambda.
func lrUpdatePlain(norm, lg, x, alpha, beta float64) float64 {
	lg *= math.Pow(norm, (alpha-1)*stats.Sigmoid(beta*x)+1)
	if lg < minLambda {
		lg = minLambda
	}
	return lg
}

// FuzzLRUpdateKernel checks that the kernel with its fast paths equals the
// plain formula bit for bit, over the inputs the update can see: a
// normalized TDM in [0, 1], and finite λ, z-score, α and β.
func FuzzLRUpdateKernel(f *testing.F) {
	f.Add(0.5, 0.01, 0.3, 3.0, 10.0)
	f.Add(0.0, 1e-300, 0.0, 3.0, 10.0)
	f.Add(1e-5, 1e-296, -5.0, 20.0, 10.0)
	f.Add(0x1p-200, 0.2, 4.5, 17.0, 10.0)
	f.Add(0.999, 0.7, -4.1, 1.0, 10.0)
	f.Add(0.25, 3e-299, 1e-3, 0.5, 1.0)
	f.Add(1.0, 0.9, 100.0, 2.5, 1.0)
	f.Fuzz(func(t *testing.T, norm, lg, x, alpha, beta float64) {
		for _, v := range []float64{norm, lg, x, alpha, beta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		norm = math.Abs(norm)
		if norm > 1 {
			norm = 1 / norm
		}
		kn := newLRKernel(alpha, beta)
		got := minLambda
		if !kn.certainClamp(norm, lg) {
			got = kn.step(norm, lg, x)
		}
		want := lrUpdatePlain(norm, lg, x, alpha, beta)
		if !sameFloat(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("norm=%v lg=%v x=%v α=%v β=%v: kernel %v, plain %v", norm, lg, x, alpha, beta, got, want)
		}
	})
}

// BenchmarkUpdateMultipliers times the multiplier update alone, over the
// group TDMs of a live LR run (the pattern sweeps run untimed), and reports
// the cost per group-update. The state restarts every 500 iterations so the
// mix of fast-path hits stays that of a real 500-iteration solve.
func BenchmarkUpdateMultipliers(b *testing.B) {
	in, routes := bigSyntheticTopology(40000, 300, 25000)
	opt := Options{}.withDefaults()
	s := newLRState(in, routes, opt)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		if i%500 == 0 {
			s.resetRun(opt)
		}
		s.computePi()
		s.solveLRS()
		z := s.groupTDMs()
		b.StartTimer()
		s.updateMultipliers(z)
		b.StopTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in.Groups)), "ns/group-update")
}
