// Package mac implements Algorithm 11.1: the complete probabilistic absMAC
// for the SINR model with both fast acknowledgments (Theorem 5.1) and fast
// approximate progress (Theorem 9.1).
//
// The two halves run in parallel by time multiplexing, exactly as in the
// paper: the Halldórsson–Mitra acknowledgment automaton (package hmbcast)
// executes in every even slot and the Algorithm 9.1 approximate-progress
// automaton (package approgress) executes in every odd slot. The
// combination is necessary because the acknowledgment algorithm alone gives
// no useful progress bound and the approximate-progress algorithm alone
// never acknowledges (Section 11).
package mac

import (
	"fmt"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Config configures the combined MAC.
type Config struct {
	// Ack configures the even-slot acknowledgment automaton.
	Ack hmbcast.Config
	// Prog configures the odd-slot approximate-progress automaton.
	Prog approgress.Config
}

// DefaultConfig returns a combined configuration for the given Λ bound,
// path-loss exponent and absMAC error probabilities.
func DefaultConfig(lambda, alpha float64, params core.Params) Config {
	return Config{
		Ack:  hmbcast.DefaultConfig(lambda, params.EpsAck),
		Prog: approgress.DefaultConfig(lambda, params.EpsApprog, alpha),
	}
}

// Validate checks both halves of the configuration.
func (c Config) Validate() error {
	if err := c.Ack.Validate(); err != nil {
		return fmt.Errorf("mac: %w", err)
	}
	if err := c.Prog.Validate(); err != nil {
		return fmt.Errorf("mac: %w", err)
	}
	return nil
}

// AckDeadline returns an upper bound on the number of engine slots before a
// broadcast acknowledges: twice the acknowledgment automaton's own bound,
// because it only runs in every other slot.
func (c Config) AckDeadline() int64 {
	return 2 * c.Ack.MaxSlots()
}

// EpochLen returns the length of one approximate-progress epoch in engine
// slots (twice the automaton's protocol-slot epoch because it runs in every
// other slot).
func (c Config) EpochLen() int64 {
	return 2 * c.Prog.EpochLen()
}

// Node is one node's combined MAC endpoint (Algorithm 11.1). It implements
// sim.Node and core.MAC.
type Node struct {
	cfg      Config
	recorder *core.Recorder

	id      int
	src     *rng.Source
	layer   core.Layer
	initErr error

	ack  *hmbcast.Automaton
	prog *approgress.Automaton

	cur     *core.Message
	curSlot int64
	seen    core.SeenSet
}

var (
	_ sim.Node = (*Node)(nil)
	_ core.MAC = (*Node)(nil)
)

// New returns a combined MAC node. recorder may be nil; if provided, every
// absMAC interface event is recorded for the spec checker.
func New(cfg Config, recorder *core.Recorder) *Node {
	return &Node{cfg: cfg, recorder: recorder}
}

// Init implements sim.Node. Automaton construction can fail on an invalid
// configuration; instead of panicking inside library code the error is
// recorded and reported through InitError (sim.NodeInitError), which the
// engine checks right after Init and returns to its caller.
func (n *Node) Init(id int, src *rng.Source) {
	n.id = id
	n.src = src
	n.ack, n.prog, n.initErr = nil, nil, nil
	ackAut, err := hmbcast.NewAutomaton(n.cfg.Ack, src.Split(), n.onData)
	if err != nil {
		n.initErr = fmt.Errorf("mac: acknowledgment automaton for node %d: %w", id, err)
		return
	}
	progAut, err := approgress.NewAutomaton(n.cfg.Prog, id, src.Split(), n.onData)
	if err != nil {
		n.initErr = fmt.Errorf("mac: approximate-progress automaton for node %d: %w", id, err)
		return
	}
	n.ack = ackAut
	n.prog = progAut
	if n.layer != nil {
		n.layer.Attach(id, n, src.Split())
	}
}

// InitError implements sim.NodeInitError.
func (n *Node) InitError() error { return n.initErr }

// SetLayer implements core.MAC.
func (n *Node) SetLayer(l core.Layer) { n.layer = l }

// Busy implements core.MAC.
func (n *Node) Busy() bool { return n.cur != nil }

// ID returns the node id assigned at Init.
func (n *Node) ID() int { return n.id }

// ProgressAutomaton exposes the odd-slot automaton for instrumentation.
func (n *Node) ProgressAutomaton() *approgress.Automaton { return n.prog }

// Bcast implements core.MAC: both halves start broadcasting m.
func (n *Node) Bcast(slot int64, m core.Message) {
	if n.cur != nil || n.ack == nil {
		return
	}
	cp := m
	n.cur = &cp
	n.record(core.Event{Kind: core.EventBcast, Node: n.id, Msg: m, Slot: slot})
	n.ack.Start(m)
	n.prog.Start(m)
}

// Abort implements core.MAC.
func (n *Node) Abort(slot int64, id core.MessageID) {
	if n.cur == nil || n.cur.ID != id || n.ack == nil {
		return
	}
	n.record(core.Event{Kind: core.EventAbort, Node: n.id, Msg: *n.cur, Slot: slot})
	n.ack.Abort()
	n.prog.Abort()
	n.cur = nil
}

// Tick implements sim.Node: even slots run the acknowledgment automaton,
// odd slots run the approximate-progress automaton.
func (n *Node) Tick(slot int64, f *sim.Frame) bool {
	n.curSlot = slot
	if n.ack == nil {
		return false // Init failed; the engine surfaces InitError instead
	}
	if n.layer != nil {
		n.layer.OnSlot(slot)
	}
	// The acknowledgment fires once the even-slot automaton halts.
	if n.cur != nil && n.ack.Done() {
		m := *n.cur
		n.cur = nil
		n.ack.Abort()
		n.prog.Abort()
		n.record(core.Event{Kind: core.EventAck, Node: n.id, Msg: m, Slot: slot})
		if n.layer != nil {
			n.layer.OnAck(slot, m)
		}
	}
	if slot%2 == 0 {
		return n.ack.Tick(f)
	}
	return n.prog.Tick(f)
}

// Receive implements sim.Node. Frames are routed to the automaton that owns
// their kind, so a frame transmitted by one half is never misinterpreted by
// the other.
func (n *Node) Receive(slot int64, f *sim.Frame) {
	n.curSlot = slot
	if f == nil || n.ack == nil {
		return
	}
	switch f.Kind {
	case hmbcast.FrameKind:
		n.ack.Receive(f)
	default:
		n.prog.Receive(f)
	}
}

func (n *Node) onData(m core.Message) {
	if m.Origin == n.id || !n.seen.Add(m.ID) {
		return
	}
	n.record(core.Event{Kind: core.EventRcv, Node: n.id, Msg: m, Slot: n.curSlot})
	if n.layer != nil {
		n.layer.OnRcv(n.curSlot, m)
	}
}

func (n *Node) record(ev core.Event) {
	if n.recorder != nil {
		n.recorder.Record(ev)
	}
}
