package main

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"time"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/route"
)

// replayGraph measures the graph layer from outside, on the workload's own
// instances, independently of the path the solver takes: one all-pairs
// build per instance, and one unit-cost ShortestPath between the endpoints
// of every 2-pin net on the queue engine the router uses by default.
func replayGraph(m map[string]float64, ins []*problem.Instance, tr *tracer) {
	var apsp []float64
	var searches int
	var spTime time.Duration
	unit := func(int) uint64 { return 1 }
	var path []int
	for _, in := range ins {
		root := tr.op("graph.replay")
		sp := root.child("graph.NewAPSP")
		t0 := time.Now()
		graph.NewAPSP(in.G)
		apsp = append(apsp, time.Since(t0).Seconds()*1e3)
		sp.end()
		d := graph.NewDijkstraQueue(in.G, graph.QueueRadix)
		sp = root.child("graph.ShortestPath")
		t0 = time.Now()
		for _, n := range in.Nets {
			if len(n.Terminals) == 2 {
				path, _, _ = d.ShortestPath(n.Terminals[0], n.Terminals[1], unit, path[:0])
				searches++
			}
		}
		spTime += time.Since(t0)
		sp.end()
		root.end()
	}
	m["graph.apsp_ms"] = median(apsp)
	m["graph.sp_ns_per_search"] = ratio(float64(spTime.Nanoseconds()), float64(searches))
	m["graph.sp_searches"] = float64(searches)
}

// replayRoute measures the graph layer and the router's cost per routed
// edge on instances whose workload does no cold routing of its own: it
// routes each one with the default options, outside any timed region.
func replayRoute(m map[string]float64, ins []*problem.Instance, tr *tracer) {
	replayGraph(m, ins, tr)
	var t time.Duration
	edges := 0
	for _, in := range ins {
		root := tr.op("route.replay")
		sp := root.child("route.Route")
		t0 := time.Now()
		routes, _, err := route.Route(context.Background(), in, route.Options{Workers: 1})
		t += time.Since(t0)
		sp.end()
		root.end()
		if err == nil {
			edges += routes.NumRoutedEdges()
		}
	}
	m["route.ns_per_routed_edge"] = ratio(float64(t.Nanoseconds()), float64(edges))
	m["route.routed_edges"] = float64(edges)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
