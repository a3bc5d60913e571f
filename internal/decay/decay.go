// Package decay implements the classical Decay local-broadcast strategy of
// Bar-Yehuda, Goldreich and Itai [4], adapted to the SINR model.
//
// The paper uses Decay twice: as the baseline whose progress is provably
// slow on the two-balls construction (Theorem 8.1: f_approg =
// Ω(Δ·log(1/ε))), and — via flooding — as the classical graph-model global
// broadcast that Table 2 compares against. This package provides the
// per-node automaton, a standalone MAC node compatible with core.MAC, and
// is reused by the experiment harness for both purposes.
//
// Time is divided into decay phases of K = ⌈log₂ Δ̃⌉+1 slots. In slot j of a
// phase (j = 0, 1, ..., K-1) every node with an ongoing broadcast transmits
// its message with probability 2^{-j}: all contenders start at probability
// one and halve in lockstep, which is exactly the coupling that the
// two-balls lower bound exploits.
package decay

import (
	"fmt"
	"math"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// FrameKind is the frame kind used for Decay data transmissions, registered
// once at package initialisation.
var FrameKind = sim.RegisterFrameKind("decay.data")

// Config holds the Decay parameters.
type Config struct {
	// DeltaBound is the known upper bound Δ̃ on the local contention (the
	// classical algorithm assumes a bound on the maximum degree or the
	// network size). It determines the phase length ⌈log₂ Δ̃⌉+1.
	DeltaBound float64
	// EpsAck is the target error probability for the acknowledgment: the
	// node keeps repeating decay phases until enough phases have elapsed
	// that every neighbour received the message with probability at least
	// 1-EpsAck under the classical analysis.
	EpsAck float64
	// AckPhaseFactor scales the number of phases before the node
	// acknowledges; the default reproduces the O(Δ̃ + log(1/ε)) phase count
	// of the classical bound.
	AckPhaseFactor float64
}

// DefaultConfig returns a Decay configuration with default constants.
func DefaultConfig(deltaBound, epsAck float64) Config {
	return Config{DeltaBound: deltaBound, EpsAck: epsAck}
}

func (c Config) withDefaults() Config {
	if c.AckPhaseFactor <= 0 {
		c.AckPhaseFactor = 1
	}
	return c
}

// maxScheduleLen bounds the derived acknowledgment length. Lengths are
// evaluated in float64 and then converted to integers; at 2^62 slots or
// beyond (or at NaN) the conversion and the int64 slot arithmetic would
// wrap, so Validate rejects such a configuration.
const maxScheduleLen = 1 << 62

// Validate checks the configuration: every parameter must be finite and in
// range, and the derived acknowledgment length must be positive and below
// maxScheduleLen slots.
func (c Config) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"DeltaBound", c.DeltaBound}, {"EpsAck", c.EpsAck}, {"AckPhaseFactor", c.AckPhaseFactor},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("decay: %s = %v must be finite", p.name, p.v)
		}
	}
	if c.DeltaBound < 1 {
		return fmt.Errorf("decay: DeltaBound = %v must be at least 1", c.DeltaBound)
	}
	if c.EpsAck <= 0 || c.EpsAck >= 1 {
		return fmt.Errorf("decay: EpsAck = %v must lie in (0, 1)", c.EpsAck)
	}
	// A finite DeltaBound keeps PhaseLen within the halvings table; the
	// phase count is what can overflow.
	if l := c.ackPhases() * float64(c.PhaseLen()); !(l >= 1 && l < maxScheduleLen) {
		return fmt.Errorf("decay: derived AckSlots = %v is not in [1, 2^62)", l)
	}
	return nil
}

// PhaseLen returns the number of slots in one decay phase. It is a
// construction-time value; Tick reads the cached schedule.
func (c Config) PhaseLen() int {
	return int(math.Ceil(math.Log2(math.Max(2, c.DeltaBound)))) + 1
}

// ackPhases returns AckPhases as a float64, before the integer conversion.
func (c Config) ackPhases() float64 {
	c = c.withDefaults()
	v := c.AckPhaseFactor * (c.DeltaBound + math.Log2(1/c.EpsAck))
	if v < 1 {
		v = 1
	}
	return math.Ceil(v)
}

// AckPhases returns the number of phases after which a broadcasting node
// acknowledges. It is a construction-time value; Tick reads the cached
// schedule.
func (c Config) AckPhases() int {
	return int(c.ackPhases())
}

// AckSlots returns the total number of protocol slots before the
// acknowledgment fires.
func (c Config) AckSlots() int64 {
	return int64(c.AckPhases()) * int64(c.PhaseLen())
}

// halvings[j] is 2^-j, the transmission probability in slot j of a decay
// phase. Halving a power of two is exact down to the smallest subnormal, so
// every entry equals math.Pow(2, -j) bit for bit. A finite DeltaBound gives
// PhaseLen ≤ ⌈log₂ MaxFloat64⌉+1 = 1025, the table's length.
var halvings = func() (h [1025]float64) {
	p := 1.0
	for j := range h {
		h[j] = p
		p /= 2
	}
	return h
}()

// schedule is the Decay schedule Tick consults, evaluated once by
// NewAutomaton; the per-slot probability is halvings[slot in phase].
type schedule struct {
	phaseLen  int
	ackPhases int
}

// Automaton is the per-node Decay state machine, ticked once per protocol
// slot.
type Automaton struct {
	sched  schedule
	src    *rng.Source
	onData func(core.Message)

	active    bool
	done      bool
	msg       core.Message
	slotInPh  int
	phaseDone int
}

// NewAutomaton returns a Decay automaton. onData is invoked for every
// received data frame and may be nil.
func NewAutomaton(cfg Config, src *rng.Source, onData func(core.Message)) (*Automaton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("decay: nil random source")
	}
	sched := schedule{phaseLen: cfg.PhaseLen(), ackPhases: cfg.AckPhases()}
	return &Automaton{sched: sched, src: src, onData: onData}, nil
}

// Start begins the Decay broadcast of m.
func (a *Automaton) Start(m core.Message) {
	a.active = true
	a.done = false
	a.msg = m
	a.slotInPh = 0
	a.phaseDone = 0
}

// Abort cancels the ongoing broadcast.
func (a *Automaton) Abort() {
	a.active = false
	a.done = false
}

// Active reports whether a broadcast is ongoing and not yet complete.
func (a *Automaton) Active() bool { return a.active && !a.done }

// Done reports whether the broadcast has completed (enough phases elapsed).
func (a *Automaton) Done() bool { return a.active && a.done }

// Tick advances the automaton one protocol slot; a transmission fills the
// pooled frame f and returns true.
//
//sinrlint:hotpath
func (a *Automaton) Tick(f *sim.Frame) bool {
	if !a.Active() {
		return false
	}
	send := a.src.Bernoulli(halvings[a.slotInPh])
	a.slotInPh++
	if a.slotInPh >= a.sched.phaseLen {
		a.slotInPh = 0
		a.phaseDone++
		if a.phaseDone >= a.sched.ackPhases {
			a.done = true
		}
	}
	if !send {
		return false
	}
	f.Kind = FrameKind
	f.Msg = a.msg
	return true
}

// Receive processes a frame decoded in one of this automaton's slots.
func (a *Automaton) Receive(f *sim.Frame) {
	if f == nil || f.Kind != FrameKind {
		return
	}
	if a.onData != nil {
		a.onData(f.Msg)
	}
}
