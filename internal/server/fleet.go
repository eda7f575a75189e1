package server

// Wire types for the federation control plane. They live in this
// package — not internal/server/federation — because they are shared
// vocabulary: the coordinator serves them, the client package decodes
// them, and a standby coordinator mirrors them from its primary. Keeping
// them next to JobSpec/JobState means every party that can already talk
// the job API can talk the fleet API without importing the federation
// implementation.

// FleetMember is one entry of a coordinator's live-worker view, served
// at GET /v1/fleet. A standby mirrors the primary's view from
// GET /v1/coordinator/status as AgeMS (time since the worker was last
// heard from) rather than an absolute timestamp, so the two clocks never
// need to agree.
type FleetMember struct {
	URL string `json:"url"`
	// State is "alive" or "suspect" (past the suspicion threshold
	// without contact; next stop is removal from the fleet).
	State string `json:"state"`
	AgeMS int64  `json:"age_ms"`
}

// CoordStatus is the coordinator heartbeat payload at
// GET /v1/coordinator/status: the leadership epoch, the role, the fleet
// view and every known job's state. A standby coordinator polls it to
// mirror the primary's ledger and detect its death; operators read it
// for a one-call picture of the federation.
type CoordStatus struct {
	// Epoch increments at every leadership change (a standby promoting
	// itself), so two coordinators' histories are totally ordered.
	Epoch int64 `json:"epoch"`
	// Role is "primary" (dispatching) or "standby" (mirroring).
	Role string `json:"role"`
	// Rank is the coordinator's fixed position in the failover order:
	// 0 for the configured primary, 1 for the first standby, and so on.
	// Rank never changes at runtime — it breaks ties when two
	// coordinators claim the same epoch after a healed partition (the
	// lower rank wins and the higher demotes itself).
	Rank int `json:"rank"`
	// Fleet is the live-worker view (same payload as GET /v1/fleet).
	Fleet []FleetMember `json:"fleet"`
	// Jobs lists every known job in submission order.
	Jobs []JobState `json:"jobs"`
}

// Coordinator role names used in CoordStatus.Role.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)
