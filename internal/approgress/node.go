package approgress

import (
	"fmt"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
)

// Node is a standalone progress-only MAC endpoint running Algorithm 9.1 in
// every slot. It provides the approximate-progress guarantee of Theorem 9.1
// but no acknowledgment bound: an ack is emitted only after a fixed timer
// (AckAfter), mirroring the paper's convention that a bcast keeps a node in
// S₁ for f_ack/2 slots. The combined MAC of Algorithm 11.1 (package mac)
// pairs this automaton with the Halldórsson–Mitra acknowledgment automaton.
type Node struct {
	cfg      Config
	ackAfter int64
	recorder *core.Recorder

	id      int
	src     *rng.Source
	aut     *Automaton
	layer   core.Layer
	initErr error

	cur       *core.Message
	bcastSlot int64
	curSlot   int64
	seen      core.SeenSet
}

var (
	_ sim.Node          = (*Node)(nil)
	_ sim.NodeInitError = (*Node)(nil)
	_ core.MAC          = (*Node)(nil)
)

// NewNode returns a standalone Algorithm 9.1 node. ackAfter is the number
// of slots after a Bcast at which the (timer-based) ack fires; zero or a
// negative value means the node never acknowledges. recorder may be nil.
func NewNode(cfg Config, ackAfter int64, recorder *core.Recorder) *Node {
	return &Node{cfg: cfg, ackAfter: ackAfter, recorder: recorder}
}

// Init implements sim.Node. An invalid configuration is recorded rather
// than panicking inside library code; the engine reads it back through
// InitError (sim.NodeInitError) right after Init and returns it to its
// caller, and Tick and Receive are no-ops on such a node.
func (n *Node) Init(id int, src *rng.Source) {
	n.id = id
	n.src = src
	n.aut, n.initErr = nil, nil
	aut, err := NewAutomaton(n.cfg, id, src.Split(), n.onData)
	if err != nil {
		n.initErr = fmt.Errorf("approgress: automaton for node %d: %w", id, err)
		return
	}
	n.aut = aut
	if n.layer != nil {
		n.layer.Attach(id, n, src.Split())
	}
}

// InitError implements sim.NodeInitError.
func (n *Node) InitError() error { return n.initErr }

// Automaton exposes the underlying Algorithm 9.1 automaton for tests and
// instrumentation.
func (n *Node) Automaton() *Automaton { return n.aut }

// SetLayer implements core.MAC.
func (n *Node) SetLayer(l core.Layer) { n.layer = l }

// Busy implements core.MAC.
func (n *Node) Busy() bool { return n.cur != nil }

// Bcast implements core.MAC.
func (n *Node) Bcast(slot int64, m core.Message) {
	if n.cur != nil || n.aut == nil {
		return
	}
	cp := m
	n.cur = &cp
	n.bcastSlot = slot
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
	if n.cur != nil && n.ackAfter > 0 && slot-n.bcastSlot >= n.ackAfter {
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
