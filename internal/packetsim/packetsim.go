// Package packetsim gives the core engine packet identities. Where
// core.Engine tracks anonymous queue *counts* (all the paper's theory
// needs), this engine tracks individual packets through FIFO queues, so
// experiments can measure what the count model cannot: end-to-end
// latency, hop counts, delivery ratios per source, and the age of the
// oldest packet in flight.
//
// The engine has no step logic of its own. It embeds a core.Engine with
// tracing on, and each Step runs core's step and then replays the
// recorded core.StepTrace on the packet queues: an injection appends new
// packets, a validated send moves the sender's head packet to the
// receiver's tail (or drops it when the send was lost), and an
// extraction pops packets from the sink's head. Every queue length
// therefore equals core's Q by construction, and every core extension
// (dynamic topology, interference, lying declarations, any arrival or
// loss process) moves packets as it moves counts.
//
// A queue rewrite has no packet identities to follow, so SetQueues
// panics: fault schedules that drop queued packets apply to count
// engines only.
package packetsim

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Packet is one tracked packet.
type Packet struct {
	ID   int64
	Src  graph.NodeID
	Born int64
	Hops int32
}

// Delivery records a packet leaving the network through a sink.
type Delivery struct {
	Packet
	At   graph.NodeID
	Done int64
}

// Engine is the packet-level simulator. Construct with New; the pluggable
// behaviours are the embedded core engine's own fields, with its
// classical defaults.
type Engine struct {
	*core.Engine

	trace  *core.StepTrace
	queues [][]Packet
	nextID int64

	// Aggregates (running).
	Injected  int64
	Delivered int64
	Lost      int64
	// SumStored accumulates the end-of-step backlog, so
	// SumStored/T is the time-averaged number in system (the L of
	// Little's law; see MeanStored).
	SumStored int64
	// Deliveries holds every completed delivery when KeepDeliveries is
	// true (default); long unbounded runs may switch it off and rely on
	// the running aggregates below.
	KeepDeliveries bool
	Deliveries     []Delivery
	SumLatency     int64
	MaxLatency     int64
	SumHops        int64
}

// New builds a packet engine with classical defaults. spec must
// validate.
func New(spec *core.Spec, router core.Router) *Engine {
	ce := core.NewEngine(spec, router)
	return &Engine{
		Engine:         ce,
		trace:          ce.EnableTrace(),
		queues:         make([][]Packet, spec.N()),
		KeepDeliveries: true,
	}
}

// SetQueues panics: a queue rewrite has no packet identities to follow.
func (e *Engine) SetQueues([]int64) {
	panic("packetsim: SetQueues has no packet identities to follow")
}

// QueueLen returns the current queue length of v.
func (e *Engine) QueueLen(v graph.NodeID) int64 { return int64(len(e.queues[v])) }

// QueueLens fills out with all queue lengths (len must be N).
func (e *Engine) QueueLens(out []int64) {
	for v := range e.queues {
		out[v] = int64(len(e.queues[v]))
	}
}

// Stored returns the number of packets currently in the network.
func (e *Engine) Stored() int64 {
	var t int64
	for _, q := range e.queues {
		t += int64(len(q))
	}
	return t
}

// OldestAge returns the age of the oldest stored packet (0 if empty).
func (e *Engine) OldestAge() int64 {
	var born int64 = -1
	for _, q := range e.queues {
		for _, p := range q {
			if born == -1 || p.Born < born {
				born = p.Born
			}
		}
	}
	if born == -1 {
		return 0
	}
	return e.T - born
}

// MeanStored returns the time-averaged backlog L = (Σ_t N_t)/T.
func (e *Engine) MeanStored() float64 {
	if e.T == 0 {
		return 0
	}
	return float64(e.SumStored) / float64(e.T)
}

// LittleLawGap compares the measured time-average backlog L with
// Little's law's prediction λ·W from the delivered packets (λ =
// delivered/T, W = mean latency). With end-of-step sampling the
// conventions line up exactly: a packet delivered m steps after its
// injection appears in exactly m end-of-step backlogs and has latency m.
// For a stationary system the two sides agree asymptotically; stranded
// or lost packets open a gap.
func (e *Engine) LittleLawGap() (l, lambdaW float64) {
	l = e.MeanStored()
	if e.T == 0 || e.Delivered == 0 {
		return l, 0
	}
	lambda := float64(e.Delivered) / float64(e.T)
	return l, lambda * e.MeanLatency()
}

// MeanLatency returns the average delivery latency so far (0 if nothing
// was delivered).
func (e *Engine) MeanLatency() float64 {
	if e.Delivered == 0 {
		return 0
	}
	return float64(e.SumLatency) / float64(e.Delivered)
}

// MeanHops returns the average hop count of delivered packets.
func (e *Engine) MeanHops() float64 {
	if e.Delivered == 0 {
		return 0
	}
	return float64(e.SumHops) / float64(e.Delivered)
}

// pop removes and returns the head packet of v's queue.
func (e *Engine) pop(v graph.NodeID) Packet {
	q := e.queues[v]
	e.queues[v] = q[1:]
	return q[0]
}

// Step executes one core step and replays its trace on the packet
// queues. Every send pops a packet that was queued at the snapshot, so a
// packet arriving this step cannot be forwarded this step.
func (e *Engine) Step() {
	t := e.T
	st := e.Engine.Step()
	tr := e.trace
	for v, k := range tr.Injected {
		e.Injected += k
		for ; k > 0; k-- {
			e.queues[v] = append(e.queues[v], Packet{ID: e.nextID, Src: graph.NodeID(v), Born: t})
			e.nextID++
		}
	}
	g := e.Spec.G
	for i, s := range tr.Sends {
		p := e.pop(s.From)
		if tr.Lost[i] {
			e.Lost++
			continue
		}
		p.Hops++
		to := s.To(g)
		e.queues[to] = append(e.queues[to], p)
	}
	for v, k := range tr.Extracted {
		for ; k > 0; k-- {
			p := e.pop(graph.NodeID(v))
			lat := t - p.Born
			e.Delivered++
			e.SumLatency += lat
			e.MaxLatency = max(e.MaxLatency, lat)
			e.SumHops += int64(p.Hops)
			if e.KeepDeliveries {
				e.Deliveries = append(e.Deliveries, Delivery{Packet: p, At: graph.NodeID(v), Done: t})
			}
		}
	}
	e.SumStored += st.Queued
}

// Run executes steps time steps.
func (e *Engine) Run(steps int64) {
	for i := int64(0); i < steps; i++ {
		e.Step()
	}
}

// Latencies extracts the latency of every recorded delivery.
func (e *Engine) Latencies() []int64 {
	out := make([]int64, len(e.Deliveries))
	for i, d := range e.Deliveries {
		out[i] = d.Done - d.Born
	}
	return out
}
