package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"tdmroute"
)

// DeltaDoc is the wire form of a tdmroute.Delta, posted as JSON to
// /v1/jobs/{id}/delta. The target id names a finished job submitted with
// retain=1; its warm solver session is node-resident, so delta jobs are
// pinned to the server that solved the base job.
type DeltaDoc struct {
	AddNets     []DeltaNetDoc  `json:"add_nets,omitempty"`
	RemoveNets  []int          `json:"remove_nets,omitempty"`
	GroupAdd    []GroupEditDoc `json:"group_add,omitempty"`
	GroupRemove []GroupEditDoc `json:"group_remove,omitempty"`
	EdgeBias    []EdgeBiasDoc  `json:"edge_bias,omitempty"`
}

// DeltaNetDoc is one net added by a delta.
type DeltaNetDoc struct {
	Terminals []int `json:"terminals"`
	Groups    []int `json:"groups,omitempty"`
}

// GroupEditDoc adds or removes one net from one NetGroup.
type GroupEditDoc struct {
	Group int `json:"group"`
	Net   int `json:"net"`
}

// EdgeBiasDoc adjusts the phantom congestion of one FPGA-graph edge.
type EdgeBiasDoc struct {
	Edge  int `json:"edge"`
	Delta int `json:"delta"`
}

// toDelta converts the wire form to the solver's delta.
func (d *DeltaDoc) toDelta() *tdmroute.Delta {
	out := &tdmroute.Delta{RemoveNets: d.RemoveNets}
	for _, n := range d.AddNets {
		out.AddNets = append(out.AddNets, tdmroute.Net{Terminals: n.Terminals, Groups: n.Groups})
	}
	for _, ge := range d.GroupAdd {
		out.GroupAdd = append(out.GroupAdd, tdmroute.GroupEdit{Group: ge.Group, Net: ge.Net})
	}
	for _, ge := range d.GroupRemove {
		out.GroupRemove = append(out.GroupRemove, tdmroute.GroupEdit{Group: ge.Group, Net: ge.Net})
	}
	for _, eb := range d.EdgeBias {
		out.EdgeBias = append(out.EdgeBias, tdmroute.EdgeBiasEdit{Edge: eb.Edge, Delta: eb.Delta})
	}
	return out
}

// handleDelta implements POST /v1/jobs/{id}/delta: acquire the base job's
// warm session exclusively, queue a ModeDelta job over it, and release (or,
// after a poisoning failure, drop) the session when the job is terminal.
// Status codes spell out why a delta cannot run: 404 for an unknown base
// job, 409 while the base is unfinished or another delta holds the session,
// 410 when the session is gone (not retained, evicted, or dropped).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.submitRejected.Add(1)
		s.unavailable(w, "server is draining")
		return
	}
	base := s.jobFor(w, r)
	if base == nil {
		return
	}
	if st := base.currentState(); !st.Terminal() {
		httpError(w, http.StatusConflict, "base job %s is %s; deltas target finished jobs", base.id, st)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var doc DeltaDoc
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		RejectBody(w, "bad delta body: ", err)
		return
	}
	var deadline time.Duration
	if v := r.URL.Query().Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad deadline %q", v)
			return
		}
		deadline = d
	}

	h, found, busy := s.warm.acquire(base.id)
	if busy {
		s.metrics.warmConflict.Add(1)
		httpError(w, http.StatusConflict, "another delta is running on job %s's warm session", base.id)
		return
	}
	if !found {
		httpError(w, http.StatusGone, "job %s has no warm session (submit with retain=1; sessions can be evicted or dropped)", base.id)
		return
	}

	req := tdmroute.Request{
		Instance: h.Instance(),
		Mode:     tdmroute.ModeDelta,
		Base:     h,
		Delta:    doc.toDelta(),
		Options:  s.cfg.SolveOptions,
	}
	baseID := base.id
	j, ok := s.submit(req, deadline, func(j *job) {
		j.baseID = baseID
		j.onFinish = func() {
			if h.Err() != nil {
				// The failure left the session mid-patch; it has no legal
				// topology to offer, so it is dropped rather than reused.
				s.warm.drop(baseID)
				s.metrics.warmDropped.Add(1)
				s.logf("job %s: warm session of %s dropped: %v", j.id, baseID, h.Err())
			} else {
				s.warm.release(baseID)
			}
		}
	})
	if !ok {
		s.warm.release(baseID)
		if s.draining.Load() {
			s.unavailable(w, "server is draining")
		} else {
			s.unavailable(w, "job queue is full")
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(s.statusOf(j))
}
