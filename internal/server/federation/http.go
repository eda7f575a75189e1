package federation

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/server"
)

// routes adds the coordinator's own routes to the plane's HTTP API. The
// job surface is the plane's — the same paths, request/response bodies
// and 429/503 + Retry-After backpressure as a single daemon — so any
// lggd client, including cmd/lggsweep -remote, can point at a
// coordinator unchanged. On top:
//
//	POST /v1/fleet/join          a worker registers itself ({"url": ...},
//	                             optionally with a capacity_runs_per_sec
//	                             hint); the coordinator liveness-checks it
//	                             (with a bounded timeout) before admission
//	GET  /v1/fleet               the current fleet in join order, each
//	                             member with liveness state, age and
//	                             scheduling health ([]server.FleetMember)
//	GET  /v1/coordinator/status  the heartbeat payload: epoch, role, fleet
//	                             and full job list (server.CoordStatus);
//	                             standbys poll it to mirror the primary
//	GET  /v1/results             compacted per-cell summaries of finished
//	                             jobs, filterable by
//	                             ?job=&tenant=&grid=&network=&router=
//
// A standby coordinator serves the same surface read-only: submissions
// are refused with 503 + Retry-After until a failover promotes it, and
// /readyz reports unready.
func (c *Coordinator) routes() {
	c.Handle("POST /v1/fleet/join", c.handleJoin)
	c.Handle("GET /v1/fleet", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, c.FleetMembers())
	})
	c.Handle("GET /v1/coordinator/status", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, c.Status())
	})
	c.Handle("GET /v1/results", c.handleSummaries)
}

// joinRequest is the body of POST /v1/fleet/join. Workers re-POST it
// periodically as a heartbeat, so a capacity hint refreshes on every
// beat.
type joinRequest struct {
	URL string `json:"url"`
	// Capacity is the worker's self-declared service rate in runs per
	// second (optional; 0 = undeclared). Dispatch weights the worker by
	// max(declared, observed EWMA), so the hint shapes placement before
	// the first range completes but never overrides observation
	// downward.
	Capacity float64 `json:"capacity_runs_per_sec,omitempty"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decode join: %v", err)
		return
	}
	if req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "join: url is required")
		return
	}
	if c.Draining() {
		server.WriteError(w, http.StatusServiceUnavailable, "coordinator draining")
		return
	}
	if req.Capacity < 0 {
		server.WriteError(w, http.StatusBadRequest, "join: capacity_runs_per_sec must be non-negative")
		return
	}
	if err := c.addWorker(req.URL, true); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	c.health.declare(req.URL, req.Capacity)
	server.WriteJSON(w, http.StatusOK, struct {
		Workers int `json:"workers"`
	}{len(c.Fleet())})
}

// handleSummaries serves the compacted result index.
func (c *Coordinator) handleSummaries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	out := c.rstore.query(ResultFilter{
		Job:     q.Get("job"),
		Tenant:  q.Get("tenant"),
		Grid:    q.Get("grid"),
		Network: q.Get("network"),
		Router:  q.Get("router"),
	})
	server.WriteJSON(w, http.StatusOK, out)
}
