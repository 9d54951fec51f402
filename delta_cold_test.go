package tdmroute

import (
	"context"
	"fmt"
	"time"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
)

// runDeltaCold is the from-scratch reference implementation of the delta
// solve, kept as the test oracle of the equivalence suite (the delta
// analogue of solveIterativeCold): apply the delta to a frozen pre-delta
// instance, seed a fresh routing session from the pre-delta topology,
// replay the cumulative edge bias, reroute the affected nets, and run a
// cold LR build warm-started from the same multipliers. priorBias replays bias applied by earlier
// deltas on the same warm state; stale plays the role of WarmHandle.stale
// (it only widens the changed set, which the cold build ignores anyway). The
// returned routing and multipliers chain into the next cold step.
func runDeltaCold(ctx context.Context, in *Instance, base Routing, priorBias []EdgeBiasEdit, lambda []float64, d *Delta, opt Options) (*Response, Routing, []float64, error) {
	opt, optErr := opt.normalized()
	if optErr != nil {
		return nil, nil, nil, optErr
	}
	if err := d.validate(in, cumulativeBias(priorBias)); err != nil {
		return nil, nil, nil, err
	}
	added := d.apply(in)
	routes := base.Clone()
	for range added {
		routes = append(routes, nil)
	}
	rs, err := route.NewSessionFromRouting(in, routes, opt.Route)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, eb := range priorBias {
		if err := rs.AddEdgeBias(eb.Edge, eb.Delta); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := rs.Remove(d.RemoveNets); err != nil {
		return nil, nil, nil, err
	}
	for _, eb := range d.EdgeBias {
		if err := rs.AddEdgeBias(eb.Edge, eb.Delta); err != nil {
			return nil, nil, nil, err
		}
	}
	affected := deltaAffectedNets(rs.RoutesAlias(), added, d.EdgeBias)

	res := &Response{Mode: ModeDelta}
	t0 := time.Now()
	err = par.Capture(func() error {
		return rs.Reroute(ctx, affected)
	})
	res.Times.Route = time.Since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	if verr := problem.ValidateRouting(in, rs.RoutesAlias()); verr != nil {
		return nil, nil, nil, fmt.Errorf("tdmroute: delta reroute produced invalid topology: %w", verr)
	}
	res.RouteStats = RouteStats{
		RoutedNets: len(affected),
		RippedNets: len(affected) - len(added) + len(d.RemoveNets),
	}

	topt := opt.TDM
	topt.WarmLambda = lambda
	var captured []float64
	topt.CaptureLambda = func(l []float64) { captured = l }
	assign, rep, times, stage, err := assignTimed(ctx, in, rs.RoutesAlias(), topt)
	res.Times.LR = times.LR
	res.Times.LegalRefine = times.LegalRefine
	if err != nil {
		return nil, nil, nil, err
	}
	res.Report = rep
	res.Solution = &Solution{Routes: rs.Routes(), Assign: assign}
	if stage != "" {
		res.Degraded = &Degraded{
			Stage:        stage,
			Cause:        degradedCause(rep, ctx),
			LRIterations: rep.Iterations,
			IncumbentGTR: rep.GTRMax,
		}
	}
	return res, rs.Routes(), captured, nil
}

// cumulativeBias folds a replayed bias-edit list into a per-edge lookup.
func cumulativeBias(edits []EdgeBiasEdit) func(edge int) int64 {
	if len(edits) == 0 {
		return nil
	}
	cum := make(map[int]int64, len(edits))
	for _, eb := range edits {
		cum[eb.Edge] += int64(eb.Delta)
	}
	return func(edge int) int64 { return cum[edge] }
}
