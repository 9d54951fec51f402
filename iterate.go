package tdmroute

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
)

// solveBase is the paper's one-pass framework (Fig. 2(b)) — NetGroup-aware
// routing followed by TDM ratio assignment — on fresh routing and TDM
// sessions, with options already normalized by the Run boundary. It is the
// whole of ModeSingle and the base solve of ModeIterative. The sessions and
// the multipliers captured by the base LR come back in a WarmHandle: the
// feedback rounds keep working on it, and Request.Retain returns it for
// later delta solves.
func solveBase(ctx context.Context, req Request) (*Response, *WarmHandle, error) {
	in, opt := req.Instance, req.Options
	h := &WarmHandle{
		in:  in,
		opt: opt,
		rs:  route.NewSession(in, opt.Route),
		ts:  tdm.NewSession(in),
	}
	res := &Response{Mode: req.Mode}
	t0 := time.Now()
	var routes Routing
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		routes, rstats, e = h.rs.Route(ctx)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	topt := opt.TDM
	userCapture := topt.CaptureLambda
	topt.CaptureLambda = func(l []float64) {
		h.lambda = append([]float64(nil), l...)
		if userCapture != nil {
			userCapture(l)
		}
	}
	assign, rep, times, stage, err := assignTimedSession(ctx, h.ts, in, routes, nil, topt)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, nil, err
	}
	res.Report = rep
	// Snapshot the routing header: the session mutates its live routing on
	// every feedback reroute, while the incumbent must stay frozen.
	res.Solution = &Solution{Routes: h.rs.Routes(), Assign: assign}
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
	return res, h, nil
}

// runIterative is the ModeIterative pipeline. It extends the one-pass
// framework with solution-driven feedback: after TDM ratio assignment, the
// NetGroup that actually realizes GTR_max is ripped up and rerouted (the
// Sec. III-B move, but driven by true ratios instead of the φ(g) estimate),
// and the assignment re-runs warm-started. Rounds that do not improve are
// discarded, so the result is never worse than ModeSingle's.
//
// Cancellation between or during feedback rounds keeps the accepted
// incumbent and degrades at StageFeedback; cancellation during the base
// solve degrades as ModeSingle does and skips the feedback rounds. When a
// hard (non-interruption) error occurs after the base solve, the returned
// Response is non-nil alongside the error and carries the incumbent and the
// stage times of all work done.
//
// Every round works in place on the base solve's sessions: the APSP LUT,
// terminal MSTs, search scratch and the CSR incidence of the LR are built
// once and patched incrementally, and the base LR's captured multipliers
// warm-start the first round. The results are byte-identical to rebuilding
// each stage from scratch (the solveIterativeCold test oracle in
// iterate_cold_test.go); only the wall clock differs.
func runIterative(ctx context.Context, req Request) (*Response, *WarmHandle, error) {
	res, h, err := solveBase(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	res.InitialGTR = res.Report.GTRMax
	if res.Degraded != nil {
		// The base solve was already curtailed: there is no budget left
		// for feedback rounds, and the base incumbent stands.
		return res, h, nil
	}
	rounds := req.Rounds
	if rounds == 0 {
		rounds = 3
	}

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
		improved, err := feedbackRoundSession(ctx, h, res)
		if err != nil {
			if isInterruption(err) {
				stop = err // incumbent stands; the round's candidate is dropped
				// A contained panic may have interrupted the TDM session
				// mid-splice; a cancellation stops only at clean
				// boundaries. Poison the handle on the former.
				var pe *par.PanicError
				if errors.As(err, &pe) {
					h.err = err
				}
				break
			}
			return res, h, err
		}
		if improved {
			res.RoundsKept++
		} else {
			break // a non-improving reroute of the critical group repeats
		}
	}
	if stop == nil {
		// An accepted candidate may itself have come from a curtailed
		// assignment (Report.Interrupted); surface that as degradation.
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
	return res, h, nil
}

// feedbackRoundSession runs one feedback round in place on the handle's
// sessions: the critical group is rerouted inside the routing session and
// the LR state is patched with just those nets. On rejection or error the
// reroute is undone, restoring the accepted topology. (A rejected or failed
// round always ends the loop, so the TDM session — already patched to the
// dropped candidate — is not consulted again within this run.)
//
// h.stale records the nets whose routes the TDM session was patched with
// this round; it is cleared when the round is accepted, so after the loop
// it names exactly the nets on which the TDM session lags the routing
// session. A retained warm handle folds it into the next delta's changed
// set.
func feedbackRoundSession(ctx context.Context, h *WarmHandle, res *Response) (bool, error) {
	in, rs := h.in, h.rs
	cur := res.Solution
	_, gmax := eval.MaxGroupTDM(in, cur)
	if gmax < 0 {
		return false, nil
	}
	members := in.Groups[gmax].Nets

	t0 := time.Now()
	err := par.Capture(func() error {
		return rs.Reroute(ctx, members)
	})
	res.Times.Route += time.Since(t0)
	if err != nil {
		return false, err // Reroute already rolled the session back
	}
	candidate := rs.RoutesAlias()
	if err := problem.ValidateRouting(in, candidate); err != nil {
		rs.UndoReroute()
		return false, fmt.Errorf("tdmroute: feedback reroute produced invalid topology: %w", err)
	}

	topt := h.opt.TDM
	topt.WarmLambda = h.lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	// Copy rather than alias the group's member list: it outlives the round
	// inside a retained warm handle, while delta group edits mutate the
	// instance's slices in place.
	h.stale = append([]int(nil), members...)
	assign, rep, times, _, err := assignTimedSession(ctx, h.ts, in, candidate, members, topt)
	res.Times.LR += times.LR
	res.Times.LegalRefine += times.LegalRefine
	if err != nil {
		rs.UndoReroute()
		return false, err
	}

	if rep.GTRMax >= res.Report.GTRMax {
		rs.UndoReroute()
		return false, nil // reject; keep previous solution and multipliers
	}
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
	res.Report = rep
	h.lambda = captured
	h.stale = nil
	return true, nil
}

// assignTimedSession is the TDM ratio assignment stage on a TDM session,
// split into the LR and legalization+refinement timings of the Fig. 3(a)
// breakdown. LR runs on the session's incrementally patched state (changed
// per the tdm.Session contract; nil on a fresh session), legalization and
// refinement are the stock Finish. The returned stage is "" for a complete
// run, or the stage the interruption curtailed (StageLR or StageRefine);
// both stage timers are populated even on the error path so callers can
// fold partial work into their totals.
func assignTimedSession(ctx context.Context, ts *tdm.Session, in *Instance, routes Routing, changed []int, opt TDMOptions) (Assignment, Report, StageTimes, Stage, error) {
	var times StageTimes
	t0 := time.Now()
	relaxed, z, lb, iters, converged, stopped := ts.RunLR(ctx, routes, changed, opt)
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

// isInterruption reports whether err is an anytime-stop cause — context
// cancellation, an expired deadline, or a contained worker panic — as
// opposed to a hard failure of the algorithm or its inputs.
func isInterruption(err error) bool {
	var pe *par.PanicError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &pe)
}
