package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// ArrivalProcess decides how many packets each source injects at each
// step. Classical sources inject exactly in(v) ("each source s ∈ S
// injects in(s) packets"); generalized sources inject *at most* in(v)
// (Definition 5), which also models losses at injection. The conjecture
// experiments use processes that occasionally exceed in(v) (bursts); the
// engine places no cap — feasibility analysis is a separate concern.
type ArrivalProcess interface {
	Name() string
	// Injections writes the number of packets injected at step t into
	// inj[v] for every node (the engine pre-zeroes inj). Entries must be
	// non-negative.
	Injections(t int64, spec *Spec, inj []int64)
}

// SourceOnlyArrivals marks arrival processes whose injections land only
// on nodes with spec.In[v] > 0 (entries elsewhere stay zero). The engine
// then reads injections at spec.Sources() instead of scanning all n
// nodes: O(|S|) instead of O(n) per step on a million-node topology with
// a handful of sources.
type SourceOnlyArrivals interface {
	ArrivalProcess
	// SourcesOnly reports whether the guarantee holds for this instance
	// (wrappers delegate to their inner process).
	SourcesOnly() bool
}

// LossModel decides, per attempted transmission, whether the packet is
// lost in flight ("this packet can be lost without any notification").
type LossModel interface {
	Name() string
	Lost(t int64, e graph.EdgeID, from graph.NodeID) bool
}

// DeclarePolicy chooses the queue length an R-generalized node reveals to
// its neighbours when its true queue is at most R (Definition 6(ii): it
// may declare any value ≤ R). The engine only consults it in that case;
// above R nodes always tell the truth.
type DeclarePolicy interface {
	Name() string
	// Declare returns the revealed queue for node v with true queue q ≤ r.
	// The engine clamps the result to [0, r].
	Declare(t int64, v graph.NodeID, q, r int64) int64
}

// ExtractPolicy chooses how many packets a destination removes at the end
// of a step, within the legal window [lo, hi] derived from Definition 7:
// hi = min(out(v), q) and lo = min(out(v), q−R) when q > R (0 otherwise).
type ExtractPolicy interface {
	Name() string
	Extract(t int64, v graph.NodeID, lo, hi int64) int64
}

// Interference restricts a planned transmission set to a subset that is
// simultaneously schedulable under a wireless interference model
// (Conjecture 5). The returned slice may share storage with sends.
type Interference interface {
	Name() string
	Filter(sn *Snapshot, sends []Send) []Send
}

// TopologyProcess animates a dynamic network (Conjecture 4): edge e may
// transmit at step t only when EdgeAlive(t, e) is true.
type TopologyProcess interface {
	Name() string
	EdgeAlive(t int64, e graph.EdgeID) bool
}

// StepStats summarizes one engine step.
type StepStats struct {
	T        int64 // the step that was executed
	Injected int64 // packets added by sources
	Planned  int64 // sends requested by the router
	// Filtered counts planned sends removed by the environment before
	// transmission: the interference model's Filter plus sends attempted
	// over an edge the dynamic-topology process took down this step.
	// Environment drops are not router bugs — a correct router can still
	// see Filtered > 0 when a TopologyProcess kills an edge it was never
	// told about (routers only see the Alive mask the engine snapshots).
	Filtered  int64
	Sent      int64 // packets that left their queue
	Lost      int64 // sent packets destroyed in flight
	Arrived   int64 // sent packets that reached the far queue
	Extracted int64 // packets removed by destinations
	// Collisions counts sends dropped because their edge was already used
	// this step. Two endpoints can legitimately claim the same link when
	// declared queues disagree with true queues (lying R-generalized
	// nodes); the engine keeps the first planned send, modelling a busy
	// link. Truthful networks always have 0 collisions.
	Collisions int64
	// Violations counts router outputs the engine had to reject as
	// unphysical: overdrawn queues (more sends leaving a node than its
	// true queue holds). A correct policy keeps this at 0; tests assert
	// it. Dead-edge drops are environment effects and count in Filtered.
	Violations int64
	Potential  int64 // P_{t+1}: network state after the step
	Queued     int64 // total packets stored after the step
	MaxQueue   int64
	// Overflowed reports that Potential saturated at math.MaxInt64 this
	// step: some Σ q(v)² exceeded the int64 range (queues ≳ 2³¹ on an
	// unstable run). Peak/verdict logic that compares potentials should
	// treat a saturated run as divergent rather than trust the value.
	Overflowed bool
}

// Totals accumulates StepStats over a run.
type Totals struct {
	Steps                               int64
	Injected, Sent, Lost, Arrived       int64
	Extracted, Collisions, Violations   int64
	PeakPotential, PeakQueued, PeakMaxQ int64
	FinalPotential, FinalQueued         int64
	// Overflowed is true when any step's potential saturated; peak and
	// final potentials are then lower bounds, not exact values.
	Overflowed bool
}

// Add folds one step into the totals.
func (t *Totals) Add(s StepStats) {
	t.Steps++
	t.Injected += s.Injected
	t.Sent += s.Sent
	t.Lost += s.Lost
	t.Arrived += s.Arrived
	t.Extracted += s.Extracted
	t.Collisions += s.Collisions
	t.Violations += s.Violations
	if s.Potential > t.PeakPotential {
		t.PeakPotential = s.Potential
	}
	if s.Queued > t.PeakQueued {
		t.PeakQueued = s.Queued
	}
	if s.MaxQueue > t.PeakMaxQ {
		t.PeakMaxQ = s.MaxQueue
	}
	t.FinalPotential = s.Potential
	t.FinalQueued = s.Queued
	t.Overflowed = t.Overflowed || s.Overflowed
}

// StepTrace exposes everything that happened during one step, for
// instruments that audit the dynamics (e.g. the Lyapunov decomposition of
// Equations 1–3). Enable with Engine.EnableTrace; the engine then refills
// the same buffers every step.
type StepTrace struct {
	// Sends are the validated transmissions actually applied; Lost[i]
	// reports whether Sends[i] was destroyed in flight.
	Sends []Send
	Lost  []bool
	// Injected and Extracted are per-node packet counts for this step.
	Injected  []int64
	Extracted []int64
}

// Engine executes the synchronous network semantics of Section II:
// inject → plan (on a common snapshot) → transmit with losses → extract.
// The zero value is not usable; construct with NewEngine and then
// optionally override the pluggable behaviours before the first Step.
type Engine struct {
	Spec     *Spec
	Router   Router
	Arrivals ArrivalProcess
	Loss     LossModel
	Declare  DeclarePolicy
	Extract  ExtractPolicy
	// Optional extensions; nil disables them.
	Interference Interference
	Topology     TopologyProcess

	// Q is the live queue vector; read it freely between steps. The
	// engine does not see direct writes to its entries: its active list,
	// snapshot and stats only track the queue changes it makes itself.
	// Use SetQueues to change queues from outside.
	Q []int64
	// T is the next step to execute.
	T int64

	// scratch
	inj      []int64
	declared []int64
	snapQ    []int64
	alive    []bool
	sends    []Send
	edgeUsed []int64 // last step each edge transmitted, as T+1 marker
	sentBy   []int64
	lastSnap Snapshot
	trace    *StepTrace
	// observers registered with AddObserver, invoked after every step.
	observers []StepObserver
	// obsStats stages each step's stats for the observer callbacks:
	// handing observers a pointer into this persistent field (instead of
	// &st) keeps the per-step StepStats on the stack, which is what makes
	// Step allocation-free.
	obsStats StepStats

	// Active-node bookkeeping: active is the sorted node list handed to
	// routers via Snapshot.Active (invariant: it contains every node with
	// Q > 0); activeMark[v] reports membership in active ∪ newlyActive;
	// newlyActive collects 0→positive transitions since the last
	// compaction; activeSpare is the merge double-buffer. injDirty and
	// sentDirty record which inj/sentBy entries were made nonzero this
	// step, so the next step zeroes only those instead of sweeping all n.
	//
	// Between two planning points a queue can change only at a node that
	// held packets at the first (so it is in active) or that received
	// packets since (so it is in newlyActive). The snapshot refresh and
	// the stats therefore visit active ∪ newlyActive, not all n nodes.
	active      []graph.NodeID
	activeSpare []graph.NodeID
	newlyActive []graph.NodeID
	activeMark  []bool
	injDirty    []graph.NodeID
	sentDirty   []graph.NodeID
	// sinks lists the nodes with out(v) > 0 and retention the nodes with
	// R(v) > 0, both ascending: extraction visits only sinks, and the
	// declare pass only retention nodes.
	sinks     []graph.NodeID
	retention []graph.NodeID
	// stale makes the next Step refresh the whole snapshot, because
	// SetQueues may have changed any queue.
	stale bool
}

// EnableTrace switches on per-step tracing and returns the trace buffer,
// which the engine refills on every Step.
func (e *Engine) EnableTrace() *StepTrace {
	if e.trace == nil {
		n := e.Spec.N()
		e.trace = &StepTrace{
			Injected:  make([]int64, n),
			Extracted: make([]int64, n),
		}
	}
	return e.trace
}

// NewEngine builds an engine for spec running router, with classical
// defaults: exact arrivals (sources inject exactly in(v)), no losses,
// truthful declarations and maximal extraction. spec must validate.
func NewEngine(spec *Spec, router Router) *Engine {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid spec: %v", err))
	}
	n := spec.N()
	e := &Engine{
		Spec:       spec,
		Router:     router,
		Arrivals:   ExactArrivals{},
		Loss:       NoLoss{},
		Declare:    DeclareTruth{},
		Extract:    ExtractMax{},
		Q:          make([]int64, n),
		inj:        make([]int64, n),
		declared:   make([]int64, n),
		snapQ:      make([]int64, n),
		sentBy:     make([]int64, n),
		edgeUsed:   make([]int64, spec.G.NumEdges()),
		activeMark: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		if spec.Out[v] > 0 {
			e.sinks = append(e.sinks, graph.NodeID(v))
		}
		if spec.R[v] > 0 {
			e.retention = append(e.retention, graph.NodeID(v))
		}
	}
	return e
}

// SetQueues overwrites the current queue vector (for experiments that
// start from a prepared state, e.g. Property 2 probes, and for faults that
// destroy queued packets). It also resets the engine's step-scoped
// scratch: the edge-use markers (callers that reset T to replay from a
// prepared state would otherwise race stale T+1 markers from the previous
// run and count phantom collisions), the sparse injection/sends
// bookkeeping, and the active-node list, which is rebuilt from the new
// queue vector. The next Step refreshes its whole snapshot.
func (e *Engine) SetQueues(q []int64) {
	if len(q) != len(e.Q) {
		panic("core: queue vector length mismatch")
	}
	copy(e.Q, q)
	clear(e.edgeUsed)
	clear(e.inj)
	clear(e.sentBy)
	e.stale = true
	e.injDirty = e.injDirty[:0]
	e.sentDirty = e.sentDirty[:0]
	e.newlyActive = e.newlyActive[:0]
	e.active = e.active[:0]
	for v := range e.Q {
		pos := e.Q[v] > 0
		e.activeMark[v] = pos
		if pos {
			e.active = append(e.active, graph.NodeID(v))
		}
	}
}

// markActive records a 0→positive queue transition.
func (e *Engine) markActive(v graph.NodeID) {
	if !e.activeMark[v] {
		e.activeMark[v] = true
		e.newlyActive = append(e.newlyActive, v)
	}
}

// compactActive folds newlyActive into the sorted active list and drops
// nodes whose queue has drained, preserving the invariant that active is
// strictly ascending and contains every node with Q > 0. It also
// refreshes snapQ and the truthful declared value of every node it
// visits: those are the only nodes whose queue can have changed since
// the last snapshot. Amortized cost is O(|active| + |new|·log|new|) per
// step with no allocations in steady state.
func (e *Engine) compactActive() {
	if len(e.newlyActive) > 1 {
		slices.Sort(e.newlyActive)
	}
	dst := e.activeSpare[:0]
	a, b := e.active, e.newlyActive
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v graph.NodeID
		// activeMark guarantees a and b are disjoint, so plain min-merge
		// keeps the output strictly ascending.
		if j >= len(b) || (i < len(a) && a[i] < b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		q := e.Q[v]
		e.snapQ[v], e.declared[v] = q, q
		if q > 0 {
			dst = append(dst, v)
		} else {
			e.activeMark[v] = false
		}
	}
	e.activeSpare = e.active
	e.active = dst
	e.newlyActive = e.newlyActive[:0]
}

// Snapshot returns the snapshot the router saw at the most recent step.
// Valid only after at least one Step; the backing arrays are reused.
func (e *Engine) Snapshot() *Snapshot { return &e.lastSnap }

// inject applies this step's injection at v and returns its size.
func (e *Engine) inject(v graph.NodeID) int64 {
	x := e.inj[v]
	if x < 0 {
		panic(fmt.Sprintf("core: arrival process injected %d < 0 at node %d", x, v))
	}
	e.Q[v] += x
	e.injDirty = append(e.injDirty, v)
	e.markActive(v)
	return x
}

// Step executes one synchronous time step and returns its statistics.
// Apart from the O(m) edge-alive pass of a dynamic topology, its work is
// proportional to the nodes holding packets, the sources, the sinks and
// the retention nodes, not to n.
func (e *Engine) Step() StepStats {
	spec := e.Spec
	g := spec.G
	st := StepStats{T: e.T}

	// Phase 1: injection. inj is zero except for last step's entries.
	for _, v := range e.injDirty {
		e.inj[v] = 0
	}
	e.injDirty = e.injDirty[:0]
	e.Arrivals.Injections(e.T, spec, e.inj)
	if so, ok := e.Arrivals.(SourceOnlyArrivals); ok && so.SourcesOnly() {
		for _, v := range spec.Sources() {
			if e.inj[v] != 0 {
				st.Injected += e.inject(v)
			}
		}
	} else {
		for v, x := range e.inj {
			if x != 0 {
				st.Injected += e.inject(graph.NodeID(v))
			}
		}
	}

	// Phase 2: snapshot and declared queues. Compaction refreshes the
	// queue and truthful declaration of every node whose queue can have
	// changed. The retention pass then runs Declare over the R > 0 nodes
	// at or below R in ascending order, as a dense scan would; a lying
	// node re-declares every step, even at q = 0.
	if e.stale {
		copy(e.snapQ, e.Q)
		copy(e.declared, e.Q)
		e.stale = false
	}
	e.compactActive()
	for _, v := range e.retention {
		if q, r := e.snapQ[v], spec.R[v]; q <= r {
			d := e.Declare.Declare(e.T, v, q, r)
			if d < 0 {
				d = 0
			}
			if d > r {
				d = r
			}
			e.declared[v] = d
		}
	}
	var alive []bool
	if e.Topology != nil {
		if e.alive == nil {
			e.alive = make([]bool, g.NumEdges())
		}
		alive = e.alive
		for ed := range alive {
			alive[ed] = e.Topology.EdgeAlive(e.T, graph.EdgeID(ed))
		}
	}
	e.lastSnap = Snapshot{Spec: spec, T: e.T, Q: e.snapQ, Declared: e.declared, Alive: alive, Active: e.active}

	// Phase 3: plan.
	e.sends = e.Router.Plan(&e.lastSnap, e.sends[:0])
	st.Planned = int64(len(e.sends))

	// Phase 3b: interference filtering.
	if e.Interference != nil {
		kept := e.Interference.Filter(&e.lastSnap, e.sends)
		st.Filtered += int64(len(e.sends) - len(kept))
		e.sends = kept
	}

	// Phase 3c: physical validation. marker: edgeUsed[e] == T+1 means
	// edge e already transmits this step. sentBy is zero except for last
	// step's entries.
	marker := e.T + 1
	for _, v := range e.sentDirty {
		e.sentBy[v] = 0
	}
	e.sentDirty = e.sentDirty[:0]
	valid := e.sends[:0]
	for _, s := range e.sends {
		if alive != nil && !alive[s.Edge] {
			st.Filtered++ // topology drop: the environment, not the router
			continue
		}
		if e.edgeUsed[s.Edge] == marker {
			st.Collisions++
			continue
		}
		if e.sentBy[s.From]+1 > e.snapQ[s.From] {
			st.Violations++
			continue
		}
		e.edgeUsed[s.Edge] = marker
		if e.sentBy[s.From] == 0 {
			e.sentDirty = append(e.sentDirty, s.From)
		}
		e.sentBy[s.From]++
		valid = append(valid, s)
	}
	e.sends = valid

	if e.trace != nil {
		e.trace.Sends = append(e.trace.Sends[:0], e.sends...)
		e.trace.Lost = e.trace.Lost[:0]
		copy(e.trace.Injected, e.inj)
		for v := range e.trace.Extracted {
			e.trace.Extracted[v] = 0
		}
	}

	// Phase 4: transmit. A node that receives joins newlyActive, so the
	// next snapshot refresh and this step's stats visit it.
	for _, s := range e.sends {
		to := s.To(g)
		e.Q[s.From]--
		st.Sent++
		lost := e.Loss.Lost(e.T, s.Edge, s.From)
		if lost {
			st.Lost++
		} else {
			e.Q[to]++
			e.markActive(to)
			st.Arrived++
		}
		if e.trace != nil {
			e.trace.Lost = append(e.trace.Lost, lost)
		}
	}

	// Phase 5: extraction (Definition 7(i)), destinations only.
	for _, v := range e.sinks {
		out := spec.Out[v]
		q := e.Q[v]
		hi := min64(out, q)
		var lo int64
		if r := spec.R[v]; q > r {
			lo = min64(out, q-r)
		}
		amt := e.Extract.Extract(e.T, v, lo, hi)
		if amt < lo {
			amt = lo
		}
		if amt > hi {
			amt = hi
		}
		e.Q[v] -= amt
		st.Extracted += amt
		if e.trace != nil {
			e.trace.Extracted[v] = amt
		}
	}

	e.T++
	e.queueStats(&st)
	if len(e.observers) > 0 {
		e.obsStats = st
		for _, o := range e.observers {
			o.OnStep(st.T, &e.lastSnap, &e.obsStats)
		}
		st = e.obsStats
	}
	return st
}

// queueStats fills the potential, backlog and largest queue of st from
// active ∪ newlyActive, which holds every node with Q > 0. The terms are
// non-negative, so summing them in this order saturates exactly when
// PotentialSat over the whole vector does.
func (e *Engine) queueStats(st *StepStats) {
	var pot, total, maxq int64
	ok := true
	for _, list := range [2][]graph.NodeID{e.active, e.newlyActive} {
		for _, v := range list {
			x := e.Q[v]
			total += x
			maxq = max(maxq, x)
			if ok {
				pot, ok = addSquare(pot, x)
			}
		}
	}
	if !ok {
		pot = math.MaxInt64
	}
	st.Potential, st.Overflowed, st.Queued, st.MaxQueue = pot, !ok, total, maxq
}

// Run executes steps time steps, folding stats into a Totals.
func (e *Engine) Run(steps int64) Totals {
	var t Totals
	for i := int64(0); i < steps; i++ {
		t.Add(e.Step())
	}
	return t
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
