package main

import (
	"runtime"
	"time"

	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/workpool"
)

// trace collects one traced pass's per-layer values. Spans are recorded
// from this package around calls into each layer; nothing inside the
// program is instrumented. All methods are no-ops on a nil *trace, which is
// how untraced passes run the same code.
type trace struct {
	vals map[string]float64
	// top is the summed duration of the top-level spans: the calls the
	// pass makes one after another, whose sum should equal its wall time.
	top    time.Duration
	gcFrom runtime.MemStats
	// forcedGC and forcedPauseNs are the collections the benchmark forces
	// itself (settledHeap), left out of the go.* values.
	forcedGC      uint32
	forcedPauseNs uint64
}

func newTrace() *trace {
	t := &trace{vals: map[string]float64{}}
	runtime.ReadMemStats(&t.gcFrom)
	return t
}

// span adds the time since t0 to the named top-level span (in seconds).
func (t *trace) span(name string, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.vals[name] += d.Seconds()
	t.top += d
}

// set records a value that is not a top-level span.
func (t *trace) set(name string, v float64) {
	if t != nil {
		t.vals[name] = v
	}
}

// exclude leaves the collections between two runtime snapshots out of the
// pass's GC counters.
func (t *trace) exclude(before, after runtime.MemStats) {
	if t != nil {
		t.forcedGC += after.NumGC - before.NumGC
		t.forcedPauseNs += after.PauseTotalNs - before.PauseTotalNs
	}
}

// finish closes the pass: it adds the runtime's GC counters and the share
// of the pass's wall time no top-level span covers.
func (t *trace) finish(wall time.Duration) map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.vals["go.gc_cycles"] = float64(ms.NumGC - t.gcFrom.NumGC - t.forcedGC)
	t.vals["go.gc_pause_ms"] = float64(ms.PauseTotalNs-t.gcFrom.PauseTotalNs-t.forcedPauseNs) / 1e6
	t.vals["trace.unaccounted_frac"] = (wall - t.top).Seconds() / wall.Seconds()
	return t.vals
}

// tracedEval wraps the fast evaluator and times slot evaluations.
// Embedding forwards every other method — Channel, SetWorkers, WorkerPool,
// ApplyEpoch, BoundsStats — so the engine wires the wrapper exactly as it
// would the bare evaluator.
type tracedEval struct {
	*sinr.FastChannel
	slots, tx int64
	slotTime  time.Duration
}

var (
	_ sinr.ParallelEvaluator                      = (*tracedEval)(nil)
	_ sinr.EpochApplier                           = (*tracedEval)(nil)
	_ interface{ Channel() *sinr.Channel }        = (*tracedEval)(nil)
	_ interface{ WorkerPool() *workpool.Pool }    = (*tracedEval)(nil)
	_ interface{ BoundsStats() sinr.BoundsStats } = (*tracedEval)(nil)
)

func (e *tracedEval) SlotReceptions(tx []int) []sinr.Reception {
	t0 := time.Now()
	r := e.FastChannel.SlotReceptions(tx)
	e.slotTime += time.Since(t0)
	e.slots++
	e.tx += int64(len(tx))
	return r
}

// report records the evaluator's per-layer values into t.
func (e *tracedEval) report(t *trace) {
	if e.slots > 0 {
		t.set("sinr.slot_us", float64(e.slotTime)/1e3/float64(e.slots))
		t.set("sinr.tx_per_slot", float64(e.tx)/float64(e.slots))
	}
}

// tracedNode wraps one protocol node and times its Tick and Receive calls.
// Each node has its own counters, so a parallel driver never shares them.
type tracedNode struct {
	sim.Node
	ticks, recvs       int64
	tickTime, recvTime time.Duration
}

var _ sim.NodeInitError = (*tracedNode)(nil)

func (n *tracedNode) Tick(slot int64, f *sim.Frame) bool {
	t0 := time.Now()
	tx := n.Node.Tick(slot, f)
	n.tickTime += time.Since(t0)
	n.ticks++
	return tx
}

func (n *tracedNode) Receive(slot int64, f *sim.Frame) {
	t0 := time.Now()
	n.Node.Receive(slot, f)
	n.recvTime += time.Since(t0)
	n.recvs++
}

// InitError forwards the wrapped node's Init failure.
func (n *tracedNode) InitError() error {
	if r, ok := n.Node.(sim.NodeInitError); ok {
		return r.InitError()
	}
	return nil
}

// reportNodes records the protocol layer's per-call costs into t and returns
// the total time spent in it.
func reportNodes(t *trace, nodes []*tracedNode) time.Duration {
	var ticks, recvs int64
	var tickTime, recvTime time.Duration
	for _, n := range nodes {
		ticks += n.ticks
		recvs += n.recvs
		tickTime += n.tickTime
		recvTime += n.recvTime
	}
	t.set("mac.ticks", float64(ticks))
	t.set("mac.recvs", float64(recvs))
	if ticks > 0 {
		t.set("mac.tick_ns", float64(tickTime)/float64(ticks))
	}
	if recvs > 0 {
		t.set("mac.recv_ns", float64(recvTime)/float64(recvs))
	}
	return tickTime + recvTime
}
