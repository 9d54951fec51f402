package tdm

import (
	"math"

	"tdmroute/internal/par"
	"tdmroute/internal/stats"
)

// updateMultipliersOracle is the multiplier update of Eqs. (15)–(16) as it
// stood before the exact fast paths of lrKernel, kept verbatim as the test
// oracle: the equivalence suite requires updateMultipliers to reproduce its
// λ bit for bit, every iteration.
func (s *lrState) updateMultipliersOracle(z float64) {
	if z <= 0 {
		return
	}
	alpha, beta := s.opt.Alpha, s.opt.Beta
	// k at a zero z-score, precomputed: zscore returns exactly 0 for every
	// group of the first two iterations and for every degenerate window, so
	// caching one Sigmoid(±0) (both signed zeros give exactly 1/2) removes
	// the transcendental from those lanes without changing a bit.
	k0 := (alpha-1)*stats.Sigmoid(0) + 1
	// A multiplier already at the floor with norm <= 1 and alpha >= 0 stays
	// at the floor: k > 0 then, so Pow(norm, k) <= 1, the rounded product
	// cannot exceed minLambda (rounding is monotone), and the clamp puts it
	// back. The window still records the sample — only the Pow/Sigmoid work
	// is skipped, not the history.
	floorFast := alpha >= 0
	partial := s.scratch(par.NumChunks(len(s.lambda), s.opt.Workers))
	par.For(len(s.lambda), s.opt.Workers, func(chunk, start, end int) {
		var sum float64
		for gi := start; gi < end; gi++ {
			norm := s.grpTDM[gi] / z // normalized group TDM ∈ (0, 1]
			lg := s.lambda[gi]
			//lint:ignore floateq the floor is an exact-assignment sentinel (the clamp stores the minLambda constant verbatim), so == is a tag test, not a numeric comparison
			if floorFast && lg == minLambda && norm <= 1 {
				s.windows.push(gi, norm)
				sum += minLambda
				continue
			}
			x := s.windows.zscore(gi, norm)
			k := k0
			if x != 0 {
				k = (alpha-1)*stats.Sigmoid(beta*x) + 1
			}
			s.windows.push(gi, norm)
			lg *= math.Pow(norm, k)
			if lg < minLambda {
				lg = minLambda // keep multiplicative updates alive
			}
			s.lambda[gi] = lg
			sum += lg
		}
		partial[chunk] = sum
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	if total > 0 {
		inv := 1 / total
		par.For(len(s.lambda), s.opt.Workers, func(_, start, end int) {
			for gi := start; gi < end; gi++ {
				s.lambda[gi] *= inv
			}
		})
	}
}
