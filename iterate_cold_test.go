package tdmroute

import (
	"context"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// solveIterativeCold is the pre-session implementation of SolveIterativeCtx,
// kept verbatim as the test oracle of the equivalence suite: every stage
// rebuilds its state from scratch (fresh router and APSP per reroute, fresh
// CSR per LR run, an explicit extra relaxation to recapture multipliers).
// The suite asserts SolveIterativeCtx reproduces its Routing and Assignment
// byte for byte.
func solveIterativeCold(ctx context.Context, in *Instance, opt IterateOptions) (*IterateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Rounds == 0 {
		opt.Rounds = 3
	}
	opt.Base = opt.Base.withWorkers()
	base, err := SolveCtx(ctx, in, opt.Base)
	if err != nil {
		return nil, err
	}
	res := &IterateResult{Result: base, InitialGTR: base.Report.GTRMax}
	if res.Degraded != nil {
		return res, nil
	}

	var lambda []float64
	topt := opt.Base.TDM
	topt.CaptureLambda = func(l []float64) { lambda = l }
	// Recapture multipliers from the accepted solution's topology so the
	// first feedback round starts warm. Only the relaxation is needed for
	// the multipliers, so skip the legalize+refine half of a full
	// assignment. An interruption here is harmless — the multipliers are a
	// warm-start hint — and is caught at the next round boundary.
	t0 := time.Now()
	tdm.RunLR(ctx, in, base.Solution.Routes, topt)
	res.Times.LR += time.Since(t0)

	var stop error
	for round := 0; round < opt.Rounds; round++ {
		if cerr := ctx.Err(); cerr != nil {
			stop = cerr
			break
		}
		if opt.onRound != nil {
			opt.onRound(round)
		}
		res.RoundsRun++
		improved, err := feedbackRoundCold(ctx, in, res, opt, &lambda)
		if err != nil {
			if isInterruption(err) {
				stop = err
				break
			}
			return res, err
		}
		if improved {
			res.RoundsKept++
		} else {
			break
		}
	}
	if stop == nil {
		stop = res.Report.Interrupted
	}
	if stop != nil {
		res.Degraded = &Degraded{
			Stage:          StageFeedback,
			Cause:          stop,
			LRIterations:   res.Report.Iterations,
			FeedbackRounds: res.RoundsRun,
			IncumbentGTR:   res.Report.GTRMax,
		}
	}
	return res, nil
}

// feedbackRoundCold rips the realized-GTR_max group, reroutes it against the
// existing usage with a throwaway router, reassigns from a cold LR build
// warm-started on the multipliers, and accepts on improvement. Stage times
// are folded into res.Times whether the round succeeds, is rejected, or
// fails — the time was spent either way.
func feedbackRoundCold(ctx context.Context, in *Instance, res *IterateResult, opt IterateOptions, lambda *[]float64) (bool, error) {
	cur := res.Solution
	_, gmax := eval.MaxGroupTDM(in, cur)
	if gmax < 0 {
		return false, nil
	}
	members := in.Groups[gmax].Nets

	candidate := cur.Routes.Clone()
	t0 := time.Now()
	err := par.Capture(func() error {
		return route.RerouteNets(ctx, in, candidate, members, opt.Base.Route)
	})
	res.Times.Route += time.Since(t0)
	if err != nil {
		return false, err
	}
	if err := problem.ValidateRouting(in, candidate); err != nil {
		return false, fmt.Errorf("tdmroute: feedback reroute produced invalid topology: %w", err)
	}

	topt := opt.Base.TDM
	topt.WarmLambda = *lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	assign, rep, times, _, err := assignTimed(ctx, in, candidate, topt)
	res.Times.LR += times.LR
	res.Times.LegalRefine += times.LegalRefine
	if err != nil {
		return false, err
	}

	if rep.GTRMax >= res.Report.GTRMax {
		return false, nil // reject; keep previous solution and multipliers
	}
	res.Solution = &Solution{Routes: candidate, Assign: assign}
	res.Report = rep
	*lambda = captured
	return true, nil
}
