// Package approgress implements Algorithm 9.1 of the paper: the
// approximate-progress half of the absMAC implementation (Theorem 9.1),
// obtained by localising the global broadcast algorithm of Daum, Gilbert,
// Kuhn and Newport [14].
//
// Time is divided into epochs; each epoch consists of Φ = Θ(log Λ) phases.
// Within an epoch the set of senders is iteratively sparsified:
//
//   - S₁ is the set of nodes with an ongoing broadcast at the start of the
//     epoch;
//   - in each phase φ the senders estimate the constant-degree reliability
//     graph H̃̃ᵘₚ[S_φ] by repeatedly transmitting their identifiers (the
//     discovery and confirmation blocks), run a label-based maximal
//     independent set computation over it (the MIS block), and transmit
//     their bcast-message with probability p/Q (the data block);
//   - S_{φ+1} is the set of MIS dominators, which is geometrically sparser
//     than S_φ (the paper's Lemma 10.15: the minimum distance roughly
//     doubles per phase), so that by the last phase every node with a
//     broadcasting G_{1-2ε}-neighbour receives some bcast-message from a
//     G_{1-ε}-neighbour with probability 1-ε_approg.
//
// Deviations from the paper, made so the algorithm runs at simulation scale
// and documented in DESIGN.md: the structural constants (T, Q, the number
// of MIS rounds) are configurable and default to small multiples of the
// paper's logarithmic terms rather than the astronomically large constants
// implied by the analysis; the Schneider–Wattenhofer MIS is replaced by a
// round-based local-minimum-label MIS with the same non-unique-label
// behaviour; and a sender that fails to hear one of its H̃̃-neighbours
// during an MIS round prunes that neighbour (the paper instead drops the
// whole node for the rest of the epoch — pruning keeps more senders alive
// at small scale while preserving the "wrong neighbourhood" error mode the
// paper analyses through its set W).
package approgress

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Frame kinds used by the algorithm, registered once at package
// initialisation.
var (
	// FrameID is the discovery-block frame carrying the sender's id.
	FrameID = sim.RegisterFrameKind("ap.id")
	// FrameList is the confirmation-block frame carrying the sender's
	// potential-neighbour list.
	FrameList = sim.RegisterFrameKind("ap.list")
	// FrameMIS is the MIS-block frame carrying the sender's label and
	// state.
	FrameMIS = sim.RegisterFrameKind("ap.mis")
	// FrameData is the data-block frame carrying the bcast-message (in the
	// typed Frame.Msg slot; the kinds above travel in Frame.Payload as
	// pointers into the sender's per-automaton scratch).
	FrameData = sim.RegisterFrameKind("ap.data")
)

// IDPayload is the payload of FrameID frames. Like every control payload of
// this algorithm it is transmitted as a pointer into the sending
// automaton's scratch, so it is valid only until the end of the slot;
// receivers that retain any of it copy the values out.
type IDPayload struct {
	// Phase is the phase index the frame belongs to.
	Phase int
	// ID is the sender's node id.
	ID int
}

// ListPayload is the payload of FrameList frames.
type ListPayload struct {
	// Phase is the phase index the frame belongs to.
	Phase int
	// ID is the sender's node id.
	ID int
	// Potentials is the sender's potential-neighbour list (O(1) entries).
	Potentials []int
}

// MIS states carried in MISPayload.
const (
	// StateUndecided marks a competitor that has not yet joined or been
	// ruled out of the MIS.
	StateUndecided uint8 = iota
	// StateDominator marks a node that joined the MIS.
	StateDominator
	// StateDominated marks a node ruled out by a dominator neighbour.
	StateDominated
)

// MISPayload is the payload of FrameMIS frames.
type MISPayload struct {
	// Phase and Round identify the MIS round the frame belongs to.
	Phase int
	Round int
	// ID is the sender's node id.
	ID int
	// Label is the sender's temporary label for this phase.
	Label uint64
	// State is the sender's current MIS state.
	State uint8
}

// Config holds the Algorithm 9.1 parameters.
type Config struct {
	// Lambda is the known polynomial upper bound on Λ.
	Lambda float64
	// EpsApprog is the approximate-progress error probability ε_approg.
	EpsApprog float64
	// Alpha is the path-loss exponent (used for Q = Θ(log^α Λ)).
	Alpha float64

	// P is the constant transmission probability p ∈ (0, 1/2] used during
	// discovery, confirmation and MIS blocks. Default 0.1.
	P float64
	// QScale scales Q = ⌈QScale · log₂(Λ)^Alpha⌉ (minimum 1). Default 1.
	QScale float64
	// TFactor scales the block length T = ⌈TFactor · log₂(Λ/ε_approg)⌉.
	// Default 6.
	TFactor float64
	// MISRounds is the number of label-MIS rounds per phase. Default 6.
	MISRounds int
	// DataFactor scales the data-block length ⌈DataFactor·Q·log₂(1/ε)⌉.
	// Default 1.
	DataFactor float64
	// NeighborThreshold is the minimum number of receptions of an id during
	// the discovery block for the sender to become a potential neighbour
	// (the paper's (1-γ/2)µT threshold). Default 2.
	NeighborThreshold int
	// Phases overrides Φ; zero means ⌈log₂ Λ⌉ + 1.
	Phases int
	// LabelRange is the size of the temporary-label space (the paper uses
	// labels from [1, poly(Λ/ε_approg)]). Zero means a default derived from
	// Λ and ε_approg.
	LabelRange uint64
}

// DefaultConfig returns an Algorithm 9.1 configuration with default
// structural constants for the given Λ bound, ε_approg and path-loss α.
func DefaultConfig(lambda, epsApprog, alpha float64) Config {
	return Config{Lambda: lambda, EpsApprog: epsApprog, Alpha: alpha}
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 0.1
	}
	if c.QScale <= 0 {
		c.QScale = 1
	}
	if c.TFactor <= 0 {
		c.TFactor = 6
	}
	if c.MISRounds <= 0 {
		c.MISRounds = 6
	}
	if c.DataFactor <= 0 {
		c.DataFactor = 1
	}
	if c.NeighborThreshold <= 0 {
		c.NeighborThreshold = 2
	}
	if c.Phases <= 0 {
		c.Phases = int(math.Ceil(math.Log2(math.Max(2, c.Lambda)))) + 1
	}
	if c.LabelRange == 0 {
		r := (c.Lambda / c.EpsApprog) * (c.Lambda / c.EpsApprog) * 1024
		if r < 1024 {
			r = 1024
		}
		if r > 1<<40 {
			r = 1 << 40
		}
		c.LabelRange = uint64(r)
	}
	return c
}

// maxScheduleLen bounds every derived schedule length (slots per block,
// phase and epoch). Lengths are evaluated in float64 and then converted to
// integers; at 2^62 slots or beyond (or at NaN) the conversion and the int64
// slot arithmetic would wrap, so Validate rejects such a configuration.
const maxScheduleLen = 1 << 62

// Validate checks the configuration: every parameter must be finite and in
// range, and the derived epoch must be a positive length below
// maxScheduleLen slots.
func (c Config) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"Lambda", c.Lambda}, {"EpsApprog", c.EpsApprog}, {"Alpha", c.Alpha},
		{"P", c.P}, {"QScale", c.QScale}, {"TFactor", c.TFactor}, {"DataFactor", c.DataFactor},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("approgress: %s = %v must be finite", p.name, p.v)
		}
	}
	if c.Lambda < 1 {
		return fmt.Errorf("approgress: Lambda = %v must be at least 1", c.Lambda)
	}
	if c.EpsApprog <= 0 || c.EpsApprog >= 1 {
		return fmt.Errorf("approgress: EpsApprog = %v must lie in (0, 1)", c.EpsApprog)
	}
	if c.Alpha <= 2 {
		return fmt.Errorf("approgress: Alpha = %v must exceed 2", c.Alpha)
	}
	d := c.withDefaults()
	if d.P > 0.5 {
		return fmt.Errorf("approgress: P = %v must not exceed 0.5", d.P)
	}
	// The epoch is the longest derived length and every block length is at
	// least 1, so bounding it bounds them all.
	epoch := float64(d.Phases) * ((2+float64(d.MISRounds))*d.blockLen() + d.dataLen())
	if !(epoch >= 1 && epoch < maxScheduleLen) {
		return fmt.Errorf("approgress: derived epoch length %v slots is not in [1, 2^62)", epoch)
	}
	return nil
}

// blockLen returns T as a float64, before the integer conversion.
func (c Config) blockLen() float64 {
	c = c.withDefaults()
	v := c.TFactor * math.Log2(math.Max(2, c.Lambda/c.EpsApprog))
	if v < 4 {
		v = 4
	}
	return math.Ceil(v)
}

// dataLen returns the data-block length as a float64, before the integer
// conversion.
func (c Config) dataLen() float64 {
	c = c.withDefaults()
	v := c.DataFactor * c.Q() * math.Log2(math.Max(2, 1/c.EpsApprog))
	if v < 8 {
		v = 8
	}
	return math.Ceil(v)
}

// T returns the block length T (slots per discovery/confirmation block and
// per MIS round). It is a construction-time value; Tick reads the cached
// schedule.
func (c Config) T() int {
	return int(c.blockLen())
}

// Q returns the data-block probability divisor Q = Θ(log^α Λ). It is a
// construction-time value; Tick reads the cached data probability P/Q.
func (c Config) Q() float64 {
	c = c.withDefaults()
	v := c.QScale * math.Pow(math.Log2(math.Max(2, c.Lambda)), c.Alpha)
	if v < 1 {
		v = 1
	}
	return math.Ceil(v)
}

// DataSlots returns the number of slots in one data block. It is a
// construction-time value; Tick reads the cached schedule.
func (c Config) DataSlots() int {
	return int(c.dataLen())
}

// PhaseCount returns Φ, the number of phases per epoch.
func (c Config) PhaseCount() int {
	return c.withDefaults().Phases
}

// MISRoundCount returns the number of MIS rounds per phase.
func (c Config) MISRoundCount() int {
	return c.withDefaults().MISRounds
}

// PhaseLen returns the number of slots in one phase: discovery (T) +
// confirmation (T) + MIS rounds (MISRounds·T) + data block. It is a
// construction-time value; Tick reads the cached schedule.
func (c Config) PhaseLen() int64 {
	t := int64(c.T())
	return 2*t + int64(c.MISRoundCount())*t + int64(c.DataSlots())
}

// EpochLen returns the number of slots in one epoch. It is a
// construction-time value; Tick reads the cached schedule.
func (c Config) EpochLen() int64 {
	return int64(c.PhaseCount()) * c.PhaseLen()
}

// schedule is the Algorithm 9.1 slot schedule: every Config-derived value
// Tick and Receive consult, evaluated once by NewAutomaton so that no slot
// re-derives it (each field is the same float expression the accessors
// compute, so the random draws are unchanged).
type schedule struct {
	epochLen int64
	phaseLen int64
	t        int64 // block length T; discovery ends at T, confirmation at 2T
	misEnd   int64 // phase position where the data block starts

	p     float64 // control-block transmission probability P
	dataP float64 // data-block transmission probability P/Q

	neighborThreshold int
	labelRange        uint64
}

// newSchedule derives the schedule of a validated configuration.
func newSchedule(c Config) schedule {
	d := c.withDefaults()
	t := int64(c.T())
	return schedule{
		epochLen:          c.EpochLen(),
		phaseLen:          c.PhaseLen(),
		t:                 t,
		misEnd:            2*t + int64(d.MISRounds)*t,
		p:                 d.P,
		dataP:             d.P / c.Q(),
		neighborThreshold: d.NeighborThreshold,
		labelRange:        d.LabelRange,
	}
}

// Automaton is the per-node Algorithm 9.1 state machine, ticked once per
// protocol slot. It never acknowledges; acknowledgment is provided by the
// other half of the combined MAC (Algorithm 11.1).
type Automaton struct {
	sched  schedule
	id     int
	src    *rng.Source
	onData func(core.Message)

	msg       *core.Message
	protoSlot int64

	// Per-epoch state.
	epochSender bool // member of S₁ this epoch

	// Per-phase state.
	phaseSender bool // member of S_φ for the current phase
	nextSender  bool // member of S_{φ+1} (decided during the MIS block)
	label       uint64
	idCounts    map[int]int
	potentials  []int
	confirmed   map[int]bool // sender id -> its last FrameList named this node
	neighbors   map[int]bool // H̃̃ neighbours for the current phase
	misState    uint8
	heardRound  map[int]MISPayload // MIS messages heard in the current round
	curRound    int

	// Transmission scratch: the control payloads the automaton points
	// pooled frames at. Re-filled on every transmitting Tick, so a
	// receiver's view is stable for exactly one slot (the sim frame
	// lifecycle). listScratch additionally reuses its Potentials backing
	// array across slots.
	idScratch   IDPayload
	listScratch ListPayload
	misScratch  MISPayload
}

// NewAutomaton returns an Algorithm 9.1 automaton for the node with the
// given id. onData is invoked for every received bcast-message (data
// frame); it may be nil.
func NewAutomaton(cfg Config, id int, src *rng.Source, onData func(core.Message)) (*Automaton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("approgress: nil random source")
	}
	return &Automaton{
		sched:  newSchedule(cfg),
		id:     id,
		src:    src,
		onData: onData,
	}, nil
}

// Start sets m as the node's ongoing broadcast. The node joins S₁ at the
// start of the next epoch (the paper's nodes join at epoch boundaries).
func (a *Automaton) Start(m core.Message) {
	cp := m
	a.msg = &cp
}

// Abort clears the ongoing broadcast. The node keeps participating until
// the end of the current epoch, as in the paper's abort semantics, because
// epoch membership was fixed at the epoch boundary.
func (a *Automaton) Abort() {
	a.msg = nil
}

// Broadcasting reports whether the node currently has an ongoing broadcast.
func (a *Automaton) Broadcasting() bool { return a.msg != nil }

// SenderActive reports whether the node is a member of the current phase's
// sender set S_φ. It is exported for tests and instrumentation.
func (a *Automaton) SenderActive() bool { return a.phaseSender }

// EpochSender reports whether the node joined S₁ in the current epoch.
func (a *Automaton) EpochSender() bool { return a.epochSender }

// Neighbors returns the node's current H̃̃-neighbour set, sorted. It is
// exported for tests and instrumentation.
func (a *Automaton) Neighbors() []int {
	out := make([]int, 0, len(a.neighbors))
	for v := range a.neighbors {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ProtocolSlot returns the automaton's protocol-slot counter.
func (a *Automaton) ProtocolSlot() int64 { return a.protoSlot }

// Tick advances the automaton by one protocol slot; a transmission fills
// the pooled frame f and returns true.
//
//sinrlint:hotpath
func (a *Automaton) Tick(f *sim.Frame) bool {
	slot := a.protoSlot
	a.protoSlot++

	s := &a.sched
	epochPos := slot % s.epochLen
	phase := int(epochPos / s.phaseLen)
	phasePos := epochPos % s.phaseLen
	t, misEnd := s.t, s.misEnd
	discEnd, listEnd := t, 2*t

	// Epoch boundary: recompute S₁ membership.
	if epochPos == 0 {
		a.epochSender = a.msg != nil
		a.phaseSender = a.epochSender
	}
	// Phase boundary: reset per-phase state.
	if phasePos == 0 {
		if phase > 0 {
			// S_{φ+1} membership was decided during the previous phase.
			a.phaseSender = a.phaseSender && a.nextSender
		}
		a.resetPhase()
	}

	switch {
	case phasePos < discEnd:
		return a.tickDiscovery(phase, f)
	case phasePos < listEnd:
		if phasePos == discEnd {
			a.finalizePotentials()
		}
		return a.tickList(phase, f)
	case phasePos < misEnd:
		round := int((phasePos - listEnd) / t)
		if (phasePos-listEnd)%t == 0 {
			if round == 0 {
				a.finalizeNeighbors()
			} else {
				a.processMISRound()
			}
			a.curRound = round
			clear(a.heardRound)
		}
		return a.tickMIS(phase, round, f)
	default:
		if phasePos == misEnd {
			a.processMISRound()
			a.finalizeMIS()
		}
		return a.tickData(f)
	}
}

// resetPhase starts a phase with empty per-phase state. The maps are
// allocated the first time the node is a phase sender and reused, cleared,
// from then on; a node that never sends keeps them nil, which is safe
// because every write to them is guarded by phaseSender.
func (a *Automaton) resetPhase() {
	a.nextSender = false
	a.label = a.src.Uint64()%a.sched.labelRange + 1
	clear(a.idCounts)
	a.potentials = a.potentials[:0]
	clear(a.confirmed)
	clear(a.neighbors)
	a.misState = StateUndecided
	clear(a.heardRound)
	a.curRound = 0
	if a.phaseSender && a.idCounts == nil {
		a.idCounts = make(map[int]int)
		a.confirmed = make(map[int]bool)
		a.neighbors = make(map[int]bool)
		a.heardRound = make(map[int]MISPayload)
	}
}

func (a *Automaton) tickDiscovery(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.sched.p) {
		return false
	}
	a.idScratch = IDPayload{Phase: phase, ID: a.id}
	f.Kind = FrameID
	f.Payload = &a.idScratch
	return true
}

func (a *Automaton) finalizePotentials() {
	if !a.phaseSender {
		return
	}
	pots := a.potentials[:0]
	for id, count := range a.idCounts {
		if count >= a.sched.neighborThreshold {
			pots = append(pots, id)
		}
	}
	sort.Ints(pots)
	a.potentials = pots
}

func (a *Automaton) tickList(phase int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.sched.p) {
		return false
	}
	a.listScratch.Phase = phase
	a.listScratch.ID = a.id
	a.listScratch.Potentials = append(a.listScratch.Potentials[:0], a.potentials...)
	f.Kind = FrameList
	f.Payload = &a.listScratch
	return true
}

// finalizeNeighbors computes the H̃̃ neighbour set: v is a neighbour of u if
// v is a potential neighbour of u and u appears in the potential list that
// u received from v (the mutual-confirmation rule of Section 9.3.1).
func (a *Automaton) finalizeNeighbors() {
	if !a.phaseSender {
		return
	}
	for _, v := range a.potentials {
		if a.confirmed[v] {
			a.neighbors[v] = true
		}
	}
}

func (a *Automaton) tickMIS(phase, round int, f *sim.Frame) bool {
	if !a.phaseSender || !a.src.Bernoulli(a.sched.p) {
		return false
	}
	a.misScratch = MISPayload{
		Phase: phase, Round: round, ID: a.id, Label: a.label, State: a.misState,
	}
	f.Kind = FrameMIS
	f.Payload = &a.misScratch
	return true
}

// processMISRound applies the state transition at the end of an MIS round:
// a node dominated by an MIS neighbour becomes dominated; an undecided node
// whose label is a strict local minimum among the neighbours it heard (and
// which heard all of its neighbours) becomes a dominator. Neighbours that
// were not heard at all during the round are pruned (see the package
// comment for how this relates to the paper's drop-out rule).
func (a *Automaton) processMISRound() {
	if !a.phaseSender {
		return
	}
	// Prune neighbours that stayed silent for the whole round.
	heardAll := true
	for v := range a.neighbors {
		if _, ok := a.heardRound[v]; !ok {
			delete(a.neighbors, v)
			heardAll = false
		}
	}
	if a.misState != StateUndecided {
		return
	}
	isMin := true
	for v := range a.neighbors {
		msg := a.heardRound[v]
		if msg.State == StateDominator {
			a.misState = StateDominated
			return
		}
		if msg.State != StateUndecided {
			continue
		}
		if msg.Label < a.label || (msg.Label == a.label && v < a.id) {
			isMin = false
		}
	}
	if isMin && heardAll {
		a.misState = StateDominator
	}
}

// finalizeMIS decides S_{φ+1} membership: only dominators continue;
// undecided nodes are ignored, exactly as in the paper's modified MIS.
func (a *Automaton) finalizeMIS() {
	if !a.phaseSender {
		return
	}
	// A node with no surviving neighbours is trivially a local minimum.
	if a.misState == StateUndecided && len(a.neighbors) == 0 {
		a.misState = StateDominator
	}
	a.nextSender = a.misState == StateDominator
}

func (a *Automaton) tickData(f *sim.Frame) bool {
	if !a.phaseSender || a.msg == nil {
		return false
	}
	if !a.src.Bernoulli(a.sched.dataP) {
		return false
	}
	f.Kind = FrameData
	f.Msg = *a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots. The
// control payloads point into the sender's scratch and are only valid for
// this call, so anything retained (whether a potential list names this
// node, the heard-this-round MIS messages) is copied out here.
func (a *Automaton) Receive(f *sim.Frame) {
	if f == nil {
		return
	}
	switch f.Kind {
	case FrameID:
		if p, ok := f.Payload.(*IDPayload); ok && a.phaseSender {
			a.idCounts[p.ID]++
		}
	case FrameList:
		if p, ok := f.Payload.(*ListPayload); ok && a.phaseSender {
			a.confirmed[p.ID] = slices.Contains(p.Potentials, a.id)
		}
	case FrameMIS:
		if p, ok := f.Payload.(*MISPayload); ok && a.phaseSender {
			if a.neighbors[p.ID] {
				a.heardRound[p.ID] = *p
			}
		}
	case FrameData:
		if a.onData != nil {
			a.onData(f.Msg)
		}
	}
}
