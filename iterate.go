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

// IterateOptions tunes SolveIterative.
type IterateOptions struct {
	// Rounds is the number of feedback rounds after the initial solve.
	// Each round rips the group that actually attained GTR_max (not the
	// φ estimate of Sec. III-B), reroutes its nets, re-runs the TDM
	// assignment warm-started from the previous multipliers, and keeps
	// the result only if GTR_max improved. Zero selects 3.
	Rounds int
	// Base configures the underlying pipeline.
	Base Options

	// onRound, when non-nil, is invoked at the start of every feedback
	// round, after the round's context check. It exists so tests can
	// trigger deterministic mid-round cancellation; both the session
	// implementation and the cold reference honor it at the same point.
	onRound func(round int)
}

// IterateResult reports the outcome of SolveIterative.
type IterateResult struct {
	*Result
	// RoundsRun is the number of feedback rounds executed.
	RoundsRun int
	// RoundsKept counts rounds whose rerouting improved GTR_max.
	RoundsKept int
	// InitialGTR is the single-pass framework's GTR_max, for comparison.
	InitialGTR int64
}

// SolveIterative extends the paper's one-pass framework (Fig. 2(b)) with
// solution-driven feedback: after TDM ratio assignment, the NetGroup that
// actually realizes GTR_max is ripped up and rerouted (the Sec. III-B move,
// but driven by true ratios instead of the φ(g) estimate), and the
// assignment re-runs warm-started. Rounds that do not improve are
// discarded, so the result is never worse than Solve's.
//
// Deprecated: Use Run with a ModeIterative Request; SolveIterative is a
// compatibility wrapper over it.
func SolveIterative(in *Instance, opt IterateOptions) (*IterateResult, error) {
	return SolveIterativeCtx(context.Background(), in, opt)
}

// SolveIterativeCtx is SolveIterative under a context. Cancellation between
// or during feedback rounds keeps the accepted incumbent and returns it with
// Result.Degraded set (stage "feedback"); cancellation during the base solve
// degrades as SolveCtx does and skips the feedback rounds entirely. When a
// hard (non-interruption) error occurs after the base solve, the returned
// result is non-nil alongside the error and carries the incumbent and the
// stage times of all work done; callers must check the error first.
//
// The whole run shares one routing session and one TDM session: the APSP
// LUT, terminal MSTs, search scratch, and the CSR incidence of the LR are
// built once by the base solve and patched incrementally by every feedback
// round. The results are byte-identical to rebuilding each stage from
// scratch (the solveIterativeCold test oracle in iterate_cold_test.go); only
// the wall clock differs.
// The session also subsumes the old explicit multiplier recapture: the base
// assignment's own LR captures λ for the first warm start, instead of
// re-running a full relaxation on the accepted topology.
//
// Deprecated: Use Run with a ModeIterative Request; SolveIterativeCtx is a
// compatibility wrapper over it.
func SolveIterativeCtx(ctx context.Context, in *Instance, opt IterateOptions) (*IterateResult, error) {
	resp, err := Run(ctx, Request{
		Instance: in,
		Mode:     ModeIterative,
		Options:  opt.Base,
		Rounds:   opt.Rounds,
		onRound:  opt.onRound,
	})
	if resp == nil {
		return nil, err
	}
	res := &IterateResult{
		Result:     resp.result(),
		RoundsRun:  resp.RoundsRun,
		RoundsKept: resp.RoundsKept,
		InitialGTR: resp.InitialGTR,
	}
	return res, err
}

// runIterative is the ModeIterative pipeline, with options already
// normalized by the Run boundary. When a hard (non-interruption) error
// occurs after the base solve, the returned result is non-nil alongside the
// error and carries the incumbent and the stage times of all work done.
//
// warm, when non-nil, receives the run's live sessions, final multipliers,
// and the stale-net bookkeeping (Request.Retain); the caller must discard it
// when runIterative also returns an error.
func runIterative(ctx context.Context, in *Instance, opt IterateOptions, warm *WarmHandle) (*IterateResult, error) {
	if opt.Rounds == 0 {
		opt.Rounds = 3
	}
	opt.Base = opt.Base.withWorkers()

	rs := route.NewSession(in, opt.Base.Route)
	ts := tdm.NewSession(in)
	var lambda []float64
	var stale []int
	if warm != nil {
		warm.rs, warm.ts = rs, ts
		defer func() {
			warm.lambda = lambda
			warm.stale = stale
		}()
	}
	base, err := solveBaseSession(ctx, in, opt.Base, rs, ts, &lambda)
	if err != nil {
		return nil, err
	}
	res := &IterateResult{Result: base, InitialGTR: base.Report.GTRMax}
	if res.Degraded != nil {
		// The base solve was already curtailed: there is no budget left
		// for feedback rounds, and the base incumbent stands.
		return res, nil
	}

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
		improved, err := feedbackRoundSession(ctx, in, res, opt, rs, ts, &lambda, &stale)
		if err != nil {
			if isInterruption(err) {
				stop = err // incumbent stands; the round's candidate is dropped
				if warm != nil {
					// A contained panic may have interrupted the TDM session
					// mid-splice; a cancellation stops only at clean
					// boundaries. Poison the handle on the former.
					var pe *par.PanicError
					if errors.As(err, &pe) {
						warm.err = err
					}
				}
				break
			}
			return res, err
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
	return res, nil
}

// solveBaseSession is SolveCtx running through the iterated solver's
// sessions instead of throwaway per-call state, with the final multipliers
// of the base LR captured into *lambda for the first feedback warm start.
// The session stages compute exactly what their cold counterparts compute,
// so the result is identical to SolveCtx's.
func solveBaseSession(ctx context.Context, in *Instance, opt Options, rs *route.Session, ts *tdm.Session, lambda *[]float64) (*Result, error) {
	res := &Result{}
	t0 := time.Now()
	var routes Routing
	var rstats RouteStats
	err := par.Capture(func() error {
		var e error
		routes, rstats, e = rs.Route(ctx)
		return e
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.RouteStats = rstats
	routeCurtailed := ctx.Err() != nil

	topt := opt.TDM
	userCapture := topt.CaptureLambda
	topt.CaptureLambda = func(l []float64) {
		*lambda = append([]float64(nil), l...)
		if userCapture != nil {
			userCapture(l)
		}
	}
	assign, rep, times, stage, err := assignTimedSession(ctx, ts, in, routes, nil, topt)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, err
	}
	res.Report = rep
	// Snapshot the routing header: the session mutates its live routing on
	// every feedback reroute, while the incumbent must stay frozen.
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
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

// feedbackRoundSession is feedbackRound running in place on the shared
// sessions: the critical group is rerouted inside the routing session and
// the LR state is patched with just those nets. On rejection or error the
// reroute is undone, restoring the accepted topology. (A rejected or failed
// round always ends the loop, so the TDM session — already patched to the
// dropped candidate — is not consulted again within this run.)
//
// stale records the nets whose routes the TDM session was patched with this
// round; it is cleared when the round is accepted, so after the loop it
// names exactly the nets on which the TDM session lags the routing session.
// A retained warm handle folds it into the next delta's changed set.
func feedbackRoundSession(ctx context.Context, in *Instance, res *IterateResult, opt IterateOptions, rs *route.Session, ts *tdm.Session, lambda *[]float64, stale *[]int) (bool, error) {
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

	topt := opt.Base.TDM
	topt.WarmLambda = *lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	// Copy rather than alias the group's member list: it outlives the round
	// inside a retained warm handle, while delta group edits mutate the
	// instance's slices in place.
	*stale = append([]int(nil), members...)
	assign, rep, times, _, err := assignTimedSession(ctx, ts, in, candidate, members, topt)
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
	*lambda = captured
	*stale = nil
	return true, nil
}

// assignTimedSession is assignTimed over the shared TDM session: LR runs on
// the incrementally patched state (changed per the tdm.Session contract),
// legalization and refinement are the stock Finish.
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
