// Package tdmroute is a reproduction of "Routing Topology and Time-Division
// Multiplexing Co-Optimization for Multi-FPGA Systems" (Lin, Tai, Lin,
// Jiang; DAC 2020): a solver for ICCAD 2019 CAD Contest Problem B.
//
// Given a multi-FPGA system (an undirected FPGA graph), a netlist of two- or
// multi-pin nets, and a set of possibly overlapping NetGroups, the solver
// routes every net over the FPGA graph and assigns every routed (net, edge)
// pair a TDM ratio — a positive even integer such that the reciprocals of
// the ratios on each edge sum to at most 1 — minimizing the maximum NetGroup
// TDM ratio (GTR_max).
//
// The pipeline follows the paper:
//
//  1. NetGroup-aware inter-FPGA routing (Sec. III): KMB Steiner routing
//     ordered by net criticality θ(n), followed by φ(g)-driven rip-up and
//     reroute.
//  2. TDM ratio assignment (Sec. IV): Lagrangian relaxation whose
//     subproblem is solved in closed form per edge via the Cauchy–Schwarz
//     inequality, with a Sigmoid + simple-moving-average multiplier update,
//     then legalization and margin-driven refinement.
//
// Basic use:
//
//	in, _ := tdmroute.LoadInstance("bench.txt")
//	res, err := tdmroute.Run(ctx, tdmroute.Request{Instance: in})
//	// res.Solution is legal; res.Report.GTRMax is the objective;
//	// res.Report.LowerBound certifies how far from relaxed-optimal it is.
//
// Run is the only entry point: Request.Mode selects the one-pass framework
// (ModeSingle), the TDM assignment alone on a fixed topology
// (ModeAssignOnly, the "+TA" experiment), the feedback extension
// (ModeIterative) or an ECO re-solve (ModeDelta). The stage timings in
// Response.Times reproduce the runtime breakdown of Fig. 3(a);
// tdm.Options.Trace exposes the convergence series of Fig. 3(b).
package tdmroute

import (
	"errors"
	"fmt"
	"time"

	"tdmroute/internal/eval"
	"tdmroute/internal/mux"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
	"tdmroute/internal/tdm"
	"tdmroute/internal/timing"
)

// Re-exported model and stage types. The concrete implementations live in
// internal packages; these aliases are the public surface.
type (
	// Instance is a problem instance: FPGA graph, netlist, NetGroups.
	Instance = problem.Instance
	// Net is one routable net (a set of terminal FPGAs).
	Net = problem.Net
	// Group is one NetGroup (a set of net indices).
	Group = problem.Group
	// Routing maps each net to the FPGA-graph edges of its Steiner tree.
	Routing = problem.Routing
	// Assignment holds legalized TDM ratios parallel to a Routing.
	Assignment = problem.Assignment
	// Solution couples a Routing with its Assignment.
	Solution = problem.Solution
	// Stats are instance statistics (the Table I columns).
	Stats = problem.Stats

	// RouteOptions tunes the routing stage (Sec. III).
	RouteOptions = route.Options
	// RouteStats reports routing-stage work.
	RouteStats = route.Stats
	// TDMOptions tunes the TDM assignment stage (Sec. IV).
	TDMOptions = tdm.Options
	// Report carries the Table II metrics of one TDM assignment run.
	Report = tdm.Report

	// TimingModel parameterizes the post-solution delay analysis.
	TimingModel = timing.Model
	// TimingReport is the outcome of AnalyzeTiming.
	TimingReport = timing.Report
)

// AnalyzeTiming estimates per-net and per-group delays of a solved system
// under the hop + multiplexing-wait model (the degradation that motivates
// the paper's objective).
func AnalyzeTiming(in *Instance, sol *Solution, model TimingModel) (*TimingReport, error) {
	return timing.Analyze(in, sol, model)
}

// Legalization domains for TDMOptions.Legal.
const (
	// LegalEven is the contest/paper domain: even integers >= 2.
	LegalEven = tdm.LegalEven
	// LegalPow2 restricts ratios to powers of two (the refs [2][3]
	// domain), keeping per-edge TDM slot frames short.
	LegalPow2 = tdm.LegalPow2
)

// Re-exported I/O and validation entry points.
var (
	ParseInstance    = problem.ParseInstance
	LoadInstance     = problem.LoadInstance
	WriteInstance    = problem.WriteInstance
	SaveInstance     = problem.SaveInstance
	ParseSolution    = problem.ParseSolution
	LoadSolution     = problem.LoadSolution
	WriteSolution    = problem.WriteSolution
	SaveSolution     = problem.SaveSolution
	ParseRouting     = problem.ParseRouting
	WriteRouting     = problem.WriteRouting
	ValidateInstance = problem.ValidateInstance
	ValidateRouting  = problem.ValidateRouting
	ValidateSolution = problem.ValidateSolution
	ComputeStats     = problem.ComputeStats

	// JSON interchange variants of the text formats.
	ParseInstanceJSON = problem.ParseInstanceJSON
	WriteInstanceJSON = problem.WriteInstanceJSON
	ParseSolutionJSON = problem.ParseSolutionJSON
	WriteSolutionJSON = problem.WriteSolutionJSON

	// Binary variants for contest-scale files.
	ParseInstanceBinary = problem.ParseInstanceBinary
	WriteInstanceBinary = problem.WriteInstanceBinary
	ParseSolutionBinary = problem.ParseSolutionBinary
	WriteSolutionBinary = problem.WriteSolutionBinary

	// AuditSolution collects every violation of a solution instead of
	// stopping at the first (the debugging view of ValidateSolution).
	AuditSolution = problem.AuditSolution
	// Congestion summarizes routing pressure on the board.
	Congestion = eval.Congestion
)

// Audit re-exports for the facade.
type (
	// Audit is the structured violation report of AuditSolution.
	Audit = problem.Audit
	// Violation is one entry of an Audit.
	Violation = problem.Violation
)

// Options configures the full co-optimization pipeline. The zero value
// reproduces the paper's published parameters.
type Options struct {
	Route RouteOptions
	TDM   TDMOptions
	// Workers is the default worker count for both stages: it fills
	// Route.Workers and TDM.Workers when those are zero, so one knob
	// parallelizes the whole pipeline. Each stage is deterministic for a
	// fixed worker count; see RouteOptions.Workers for the routing
	// wave-determinism contract.
	Workers int
	// Partitions is the spatial region count of partitioned initial routing.
	// It fills Route.Partitions when that is zero. 0 selects auto (currently
	// a single region, i.e. the classic wave path — partitioning changes
	// the routing result, so it is strictly opt-in); 1 disables explicitly;
	// negative values fail request validation with an *OptionError.
	Partitions int
}

// withWorkers propagates the pipeline-level worker count into the stages.
func (o Options) withWorkers() Options {
	if o.Workers != 0 {
		if o.Route.Workers == 0 {
			o.Route.Workers = o.Workers
		}
		if o.TDM.Workers == 0 {
			o.TDM.Workers = o.Workers
		}
	}
	return o
}

// StageTimes records wall-clock time per pipeline stage, matching the
// Fig. 3(a) breakdown (parsing and output timing belong to the callers that
// perform I/O; cmd/tdmroute fills them in).
type StageTimes struct {
	Route       time.Duration // inter-FPGA routing
	LR          time.Duration // Lagrangian relaxation
	LegalRefine time.Duration // legalization + refinement
}

// Total returns the sum of the recorded stage times.
func (s StageTimes) Total() time.Duration { return s.Route + s.LR + s.LegalRefine }

// Stage identifies a pipeline stage in a Degraded report.
type Stage string

// Pipeline stages, in execution order.
const (
	StageRoute    Stage = "route"
	StageLR       Stage = "lr"
	StageRefine   Stage = "refine"
	StageFeedback Stage = "feedback"
)

// Degraded reports that a solve was curtailed — by context cancellation, an
// expired deadline, or a contained worker panic — and that the returned
// solution is the best incumbent checkpointed before the interruption rather
// than a full-budget result. The incumbent is always legal
// (ValidateSolution passes); Degraded only qualifies its quality.
type Degraded struct {
	// Stage is the earliest pipeline stage the interruption curtailed.
	// Later stages still run in bounded fallback mode to legalize the
	// incumbent, so a StageRoute degradation does not mean TDM assignment
	// was skipped.
	Stage Stage
	// Cause is the reason the run stopped — context.Canceled,
	// context.DeadlineExceeded, or a *par.PanicError — and is never nil
	// (when no concrete cause was recorded a definite sentinel stands in).
	Cause error
	// LRIterations counts completed Lagrangian-relaxation iterations.
	LRIterations int
	// FeedbackRounds counts feedback rounds started by a ModeIterative run
	// (always 0 in the other modes).
	FeedbackRounds int
	// IncumbentGTR is GTR_max of the returned incumbent solution.
	IncumbentGTR int64
}

func (d *Degraded) String() string {
	return fmt.Sprintf("degraded at stage %s after %d LR iterations (GTR_max %d): %v",
		d.Stage, d.LRIterations, d.IncumbentGTR, d.Cause)
}

// Evaluate returns GTR_max of a solution and the index of a group attaining
// it (-1 when the instance has no groups).
func Evaluate(in *Instance, sol *Solution) (int64, int) {
	return eval.MaxGroupTDM(in, sol)
}

// GroupTDMs returns the TDM ratio of every NetGroup under sol.
func GroupTDMs(in *Instance, sol *Solution) []int64 {
	return eval.GroupTDMs(in, sol)
}

// VerifySchedules performs the semantic check behind the edge constraint:
// for every routed edge it builds the concrete TDM slot schedule of
// Fig. 1(b)(c) and verifies each signal receives exactly its 1/ratio share
// of frame slots. Edges whose ratio set would need a frame longer than
// mux.MaxFrameLen (highly irregular ratios) are counted in skipped rather
// than verified. A non-nil error reports the first unschedulable edge.
func VerifySchedules(in *Instance, sol *Solution) (verified, skipped int, err error) {
	loads := problem.EdgeLoads(in.G.NumEdges(), sol.Routes)
	for e, ls := range loads {
		if len(ls) == 0 {
			continue
		}
		ratios := make([]int64, len(ls))
		for i, l := range ls {
			ratios[i] = sol.Assign.Ratios[l.Net][l.Pos]
		}
		switch err := mux.VerifyEdge(ratios); {
		case err == nil:
			verified++
		case errors.Is(err, mux.ErrFrameTooLong):
			skipped++
		default:
			return verified, skipped, fmt.Errorf("edge %d: %w", e, err)
		}
	}
	return verified, skipped, nil
}
