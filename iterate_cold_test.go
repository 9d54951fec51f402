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

// runSingle is the cold ModeSingle pipeline, kept as the test oracle of the
// session pipeline (solveBase): routing on a throwaway router, then the cold
// TDM assignment (assignTimed), with options already normalized.
// TestRunMatchesColdReference asserts Run reproduces its solution bytes and
// full Report.
func runSingle(ctx context.Context, in *Instance, opt Options) (*Response, error) {
	res := &Response{Mode: ModeSingle}
	t0 := time.Now()
	var routes Routing
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		routes, rstats, e = route.Route(ctx, in, opt.Route)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	assign, rep, times, stage, err := assignTimed(ctx, in, routes, opt.TDM)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, err
	}
	res.Report = rep
	res.Solution = &Solution{Routes: routes, Assign: assign}
	if routeCurtailed {
		stage = StageRoute
	}
	if stage != "" {
		res.Degraded = &Degraded{
			Stage:        stage,
			Cause:        degradedCause(rep, ctx),
			LRIterations: rep.Iterations,
			IncumbentGTR: rep.GTRMax,
		}
	}
	return res, nil
}

// assignTimed is the cold TDM assignment stage, the oracle of
// assignTimedSession: a fresh LR build per call (tdm.RunLR) followed by
// tdm.Finish, with the same stage timers and Degraded attribution.
func assignTimed(ctx context.Context, in *Instance, routes Routing, opt TDMOptions) (Assignment, Report, StageTimes, Stage, error) {
	var times StageTimes
	t0 := time.Now()
	relaxed, z, lb, iters, converged, stopped := tdm.RunLR(ctx, in, routes, opt)
	times.LR = time.Since(t0)
	if relaxed == nil {
		// No legalizable incumbent: even the bounded fallback pass failed.
		return Assignment{}, Report{}, times, StageLR, stopped
	}

	t1 := time.Now()
	assign, rep, err := tdm.Finish(ctx, in, routes, relaxed, opt)
	times.LegalRefine = time.Since(t1)
	if err != nil {
		return Assignment{}, Report{}, times, StageRefine, err
	}

	rep.Iterations = iters
	rep.Converged = converged
	rep.LowerBound = lb
	rep.RelaxedZ = z
	var stage Stage
	switch {
	case stopped != nil:
		// LR stopped early; Finish may have recorded its own (refine)
		// interruption, but the earlier stage wins the attribution.
		stage = StageLR
		rep.Interrupted = stopped
	case rep.Interrupted != nil:
		stage = StageRefine
	}
	return assign, rep, times, stage, nil
}

// solveIterativeCold is the from-scratch implementation of ModeIterative,
// kept as the test oracle of the equivalence suite: every stage rebuilds its
// state (the cold runSingle for the base solve, a fresh router and APSP per
// reroute, a fresh CSR per LR run, an explicit extra relaxation to recapture
// multipliers). The suite asserts Run reproduces its Routing and Assignment
// byte for byte. It honors req.Rounds, req.Options and req.onRound.
func solveIterativeCold(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	in := req.Instance
	rounds := req.Rounds
	if rounds == 0 {
		rounds = 3
	}
	opt, err := req.Options.normalized()
	if err != nil {
		return nil, err
	}
	res, err := runSingle(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	res.Mode = ModeIterative
	res.InitialGTR = res.Report.GTRMax
	if res.Degraded != nil {
		return res, nil
	}

	var lambda []float64
	topt := opt.TDM
	topt.CaptureLambda = func(l []float64) { lambda = l }
	// Recapture multipliers from the accepted solution's topology so the
	// first feedback round starts warm. Only the relaxation is needed for
	// the multipliers, so skip the legalize+refine half of a full
	// assignment. An interruption here is harmless — the multipliers are a
	// warm-start hint — and is caught at the next round boundary.
	t0 := time.Now()
	tdm.RunLR(ctx, in, res.Solution.Routes, topt)
	res.Times.LR += time.Since(t0)

	var stop error
	for round := 0; round < rounds; round++ {
		if cerr := ctx.Err(); cerr != nil {
			stop = cerr
			break
		}
		if req.onRound != nil {
			req.onRound(round)
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
// existing usage on a throwaway routing session seeded from the incumbent,
// reassigns from a cold LR build warm-started on the multipliers, and
// accepts on improvement. Stage times are folded into res.Times whether the
// round succeeds, is rejected, or fails — the time was spent either way.
func feedbackRoundCold(ctx context.Context, in *Instance, res *Response, opt Options, lambda *[]float64) (bool, error) {
	cur := res.Solution
	_, gmax := eval.MaxGroupTDM(in, cur)
	if gmax < 0 {
		return false, nil
	}
	members := in.Groups[gmax].Nets

	var candidate Routing
	t0 := time.Now()
	err := par.Capture(func() error {
		rs, err := route.NewSessionFromRouting(in, cur.Routes, opt.Route)
		if err != nil {
			return err
		}
		if err := rs.Reroute(ctx, members); err != nil {
			return err
		}
		candidate = rs.Routes()
		return nil
	})
	res.Times.Route += time.Since(t0)
	if err != nil {
		return false, err
	}
	if err := problem.ValidateRouting(in, candidate); err != nil {
		return false, fmt.Errorf("tdmroute: feedback reroute produced invalid topology: %w", err)
	}

	topt := opt.TDM
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
