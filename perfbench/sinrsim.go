package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sinrmac/internal/core"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// The sinrsim-uniform workload is the cmd/sinrsim path for
//
//	sinrsim -topology uniform -n 8000 -mac combined -broadcasters 50 -slots 1000 -seed <seed>
const (
	simN            = 8000
	simBroadcasters = 50
	simSlots        = 1000
)

type sinrsimRun struct{ seed uint64 }

// broadcaster is the CLI's layer: it issues one broadcast at slot 0.
type broadcaster struct {
	core.NopLayer
	mac  core.MAC
	msg  core.Message
	sent bool
}

func (l *broadcaster) Attach(node int, m core.MAC, src *rng.Source) { l.mac = m }

func (l *broadcaster) OnSlot(slot int64) {
	if !l.sent && l.msg.ID != 0 {
		l.mac.Bcast(slot, l.msg)
		l.sent = true
	}
}

func (s *sinrsimRun) pass(tr *trace) passResult {
	var res passResult
	fail := func(err error) passResult {
		res.outputs = append(res.outputs, "error: "+err.Error())
		res.failed++
		return res
	}
	start := time.Now()

	t0 := time.Now()
	params := sinr.DefaultParams(12)
	side := 2.2 * math.Sqrt(float64(simN)) * 2
	d, err := topology.ConnectedUniform(simN, side, params, rng.New(s.seed), 100)
	tr.span("topology.build_s", t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	err = d.Validate(false)
	tr.span("topology.validate_s", t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	lambda := d.Lambda()
	tr.span("topology.lambda_s", t0)
	t0 = time.Now()
	strong := d.StrongGraph()
	edges, maxDeg, connected := strong.NumEdges(), strong.MaxDegree(), strong.IsConnected()
	tr.span("graphs.strong_s", t0)
	t0 = time.Now()
	diam := strong.Diameter()
	tr.span("graphs.diameter_s", t0)
	res.outputs = append(res.outputs, fmt.Sprintf("deployment %s: n=%d edges=%d maxdeg=%d diam=%d lambda=%.1f connected=%v",
		d.Name, d.NumNodes(), edges, maxDeg, diam, lambda, connected))

	t0 = time.Now()
	rec := core.NewRecorder()
	cfg := mac.DefaultConfig(lambda, d.Params.Alpha, core.DefaultParams())
	nodes := make([]sim.Node, d.NumNodes())
	var traced []*tracedNode
	for i := range nodes {
		node := mac.New(cfg, rec)
		l := &broadcaster{}
		if i < simBroadcasters {
			l.msg = core.Message{ID: core.MessageID(i + 1), Origin: i, Payload: fmt.Sprintf("msg-%d", i)}
		}
		node.SetLayer(l)
		nodes[i] = node
		if tr != nil {
			tn := &tracedNode{Node: node}
			traced = append(traced, tn)
			nodes[i] = tn
		}
	}
	tr.span("mac.new_s", t0)
	t0 = time.Now()
	ch, err := d.Channel()
	tr.span("topology.build_s", t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	fast := sinr.NewFastChannel(ch, sinr.FastOptions{})
	tr.span("sinr.new_fast_s", t0)
	defer fast.Close()
	var ev sinr.ChannelEvaluator = fast
	var tev *tracedEval
	if tr != nil {
		tev = &tracedEval{FastChannel: fast}
		ev = tev
	}
	t0 = time.Now()
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: s.seed, Evaluator: ev})
	tr.span("sim.new_engine_s", t0)
	if err != nil {
		return fail(err)
	}
	res.setup = time.Since(start)
	gcStart := time.Now()
	res.heap = settledHeap(tr)
	excluded := time.Since(gcStart)

	var alloc0, alloc1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&alloc0)
	}
	t0 = time.Now()
	// The CLI polls its SIGINT flag between slots; so does this run.
	var interrupted atomic.Bool
	eng.Run(simSlots, interrupted.Load)
	runEnd := time.Now()
	tr.span("sim.run_s", t0)
	runTime := runEnd.Sub(t0)
	if tr != nil {
		runtime.ReadMemStats(&alloc1)
	}
	t0 = time.Now()
	st := eng.Stats()
	res.steps, res.stepping = int(st.Slots), runTime
	res.outputs = append(res.outputs, fmt.Sprintf("simulated %d slots: %d transmissions, %d receptions", st.Slots, st.Transmissions, st.Receptions))
	events := rec.Events()
	ackRep := core.CheckAcks(events, strong)
	res.outputs = append(res.outputs, fmt.Sprintf("acknowledgments: %d acked, %d unacked, %d aborted, %d nice-execution violations, mean latency %.1f, max latency %d",
		ackRep.Acked, ackRep.Unacked, ackRep.Aborted, ackRep.Violations, ackRep.MeanLatency, ackRep.MaxLatency))
	prog := core.MeasureProgress(events, strong, strong, eng.Slot())
	tr.span("core.check_s", t0)
	t0 = time.Now()
	approx := d.ApproxGraph()
	tr.span("graphs.approx_s", t0)
	t0 = time.Now()
	approg := core.MeasureProgress(events, strong, approx, eng.Slot())
	res.outputs = append(res.outputs,
		fmt.Sprintf("progress (G_{1-eps}):        %d/%d windows satisfied, mean latency %.1f, max %d",
			prog.Satisfied, prog.Satisfied+prog.Unsatisfied, prog.MeanLatency, prog.MaxLatency),
		fmt.Sprintf("approx progress (G_{1-2eps}): %d/%d windows satisfied, mean latency %.1f, max %d",
			approg.Satisfied, approg.Satisfied+approg.Unsatisfied, approg.MeanLatency, approg.MaxLatency))
	tr.span("core.check_s", t0)
	res.wall = time.Since(start) - excluded

	if tr != nil {
		protocol := reportNodes(tr, traced)
		tev.report(tr)
		tr.set("sim.self_s", (runTime - protocol - tev.slotTime).Seconds())
		tr.set("sim.alloc_bytes_per_slot", float64(alloc1.TotalAlloc-alloc0.TotalAlloc)/float64(st.Slots))
	}

	// Checks: the CLI's lines when a golden was recorded for the seed, and
	// the checkers' invariants on every seed, reported as one more output.
	if want, ok := readGolden(fmt.Sprintf("sinrsim-uniform/seed-%d.txt", s.seed)); ok {
		res.failed += countMismatches(strings.Split(strings.TrimRight(want, "\n"), "\n"), res.outputs)
	}
	invariants := "invariants hold"
	if !connected || st.Slots != simSlots || ackRep.Violations != 0 ||
		ackRep.Acked+ackRep.Unacked+ackRep.Aborted != simBroadcasters ||
		prog.Satisfied+prog.Unsatisfied == 0 {
		invariants = "invariants violated"
		res.failed++
	}
	res.outputs = append(res.outputs, invariants)
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: sinrsim-uniform at seed %d failed %d check(s):\n%s\n", s.seed, res.failed, strings.Join(res.outputs, "\n"))
	}
	return res
}
