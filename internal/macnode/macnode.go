// Package macnode provides the generic adapter that turns a single
// local-broadcast automaton (the Halldórsson–Mitra acknowledgment algorithm,
// the Decay baseline, ...) into a full per-node MAC endpoint: a sim.Node
// automaton that also implements core.MAC, drives an attached higher layer,
// deduplicates rcv events and records the absMAC event trace.
//
// The combined MAC of Algorithm 11.1 (package mac) does not use this
// adapter because it multiplexes two automatons onto alternating slots; all
// single-automaton MACs do.
package macnode

import (
	"fmt"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Automaton is a per-node local-broadcast algorithm ticked once per
// protocol slot.
type Automaton interface {
	// Start begins the local broadcast of m, resetting algorithm state.
	Start(m core.Message)
	// Abort cancels the ongoing broadcast.
	Abort()
	// Done reports whether the ongoing broadcast has completed and can be
	// acknowledged.
	Done() bool
	// Tick advances the automaton one slot. To transmit it fills the
	// node's pooled frame f and returns true; returning false listens.
	// The frame follows the sim frame lifecycle: it is reused across
	// slots and valid only until the end of the slot.
	Tick(f *sim.Frame) bool
	// Receive processes a frame decoded in one of the automaton's slots.
	// The frame's payload is valid only for the duration of the call.
	Receive(f *sim.Frame)
}

// Factory constructs a node's automaton given its private random source and
// the callback the automaton must invoke for every received bcast-message.
type Factory func(src *rng.Source, onData func(core.Message)) (Automaton, error)

// Node adapts one Automaton into a core.MAC + sim.Node endpoint.
type Node struct {
	factory  Factory
	recorder *core.Recorder

	id      int
	src     *rng.Source
	aut     Automaton
	layer   core.Layer
	initErr error

	cur     *core.Message
	curSlot int64
	seen    core.SeenSet
}

var (
	_ sim.Node = (*Node)(nil)
	_ core.MAC = (*Node)(nil)
)

// New returns a Node built around the automaton produced by factory.
// recorder may be nil; if provided, every absMAC interface event is
// recorded for the spec checker.
func New(factory Factory, recorder *core.Recorder) *Node {
	if factory == nil {
		panic("macnode: nil factory")
	}
	return &Node{factory: factory, recorder: recorder}
}

// Init implements sim.Node. A factory failure (typically an invalid
// automaton configuration) is recorded rather than panicking inside library
// code; the engine reads it back through InitError (sim.NodeInitError)
// right after Init and returns the wrapped error to its caller.
func (n *Node) Init(id int, src *rng.Source) {
	n.id = id
	n.src = src
	n.aut, n.initErr = nil, nil
	aut, err := n.factory(src.Split(), n.onData)
	if err != nil {
		n.initErr = fmt.Errorf("macnode: automaton construction for node %d failed: %w", id, err)
		return
	}
	n.aut = aut
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

// Bcast implements core.MAC. The enhanced absMAC allows one outstanding
// broadcast per node; extra requests are dropped (higher layers queue).
func (n *Node) Bcast(slot int64, m core.Message) {
	if n.cur != nil || n.aut == nil {
		return
	}
	cp := m
	n.cur = &cp
	n.record(core.Event{Kind: core.EventBcast, Node: n.id, Msg: m, Slot: slot})
	n.aut.Start(m)
}

// Abort implements core.MAC.
func (n *Node) Abort(slot int64, id core.MessageID) {
	if n.cur == nil || n.cur.ID != id || n.aut == nil {
		return
	}
	n.record(core.Event{Kind: core.EventAbort, Node: n.id, Msg: *n.cur, Slot: slot})
	n.aut.Abort()
	n.cur = nil
}

// Tick implements sim.Node.
func (n *Node) Tick(slot int64, f *sim.Frame) bool {
	n.curSlot = slot
	if n.aut == nil {
		return false // Init failed; the engine surfaces InitError instead
	}
	if n.layer != nil {
		n.layer.OnSlot(slot)
	}
	// Deliver the acknowledgment for a completed broadcast.
	if n.cur != nil && n.aut.Done() {
		m := *n.cur
		n.cur = nil
		n.aut.Abort()
		n.record(core.Event{Kind: core.EventAck, Node: n.id, Msg: m, Slot: slot})
		if n.layer != nil {
			n.layer.OnAck(slot, m)
		}
	}
	return n.aut.Tick(f)
}

// Receive implements sim.Node.
func (n *Node) Receive(slot int64, f *sim.Frame) {
	n.curSlot = slot
	if n.aut == nil {
		return
	}
	n.aut.Receive(f)
}

// onData handles a received bcast-message: the first reception of each
// message id produces a rcv event and an upward OnRcv callback.
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
