package mac

import (
	"testing"

	"sinrmac/internal/approgress"
	"sinrmac/internal/core"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// testConfig returns a combined configuration tuned for quick unit tests.
func testConfig(lambda float64) Config {
	cfg := Config{
		Ack:  hmbcast.DefaultConfig(lambda, 0.1),
		Prog: approgress.DefaultConfig(lambda, 0.1, 3),
	}
	cfg.Ack.StepFactor = 1
	cfg.Ack.HaltFactor = 4
	cfg.Prog.QScale = 0.25
	cfg.Prog.TFactor = 4
	cfg.Prog.MISRounds = 4
	cfg.Prog.DataFactor = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(16).Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	bad := testConfig(16)
	bad.Ack.Lambda = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid ack config accepted")
	}
	bad = testConfig(16)
	bad.Prog.Alpha = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid prog config accepted")
	}
	if testConfig(16).AckDeadline() <= 0 || testConfig(16).EpochLen() <= 0 {
		t.Fatal("derived deadlines must be positive")
	}
}

// TestInitErrorSurfaced checks the library-error contract: an invalid
// configuration no longer panics inside Init — the node records the
// construction failure, reports it via InitError, and sim.NewEngine returns
// it wrapped to the caller. A failed node is inert until re-initialised.
func TestInitErrorSurfaced(t *testing.T) {
	bad := testConfig(16)
	bad.Ack.Lambda = 0
	n := New(bad, nil)
	n.Init(0, rng.New(1))
	if n.InitError() == nil {
		t.Fatal("InitError() = nil for an invalid ack config")
	}
	var f sim.Frame
	if n.Tick(0, &f) {
		t.Fatal("failed node transmitted")
	}
	n.Receive(1, &f)
	n.Bcast(1, core.Message{ID: 1, Origin: 0})
	if n.Busy() {
		t.Fatal("failed node accepted a broadcast")
	}

	bad2 := testConfig(16)
	bad2.Prog.Alpha = 1
	n2 := New(bad2, nil)
	n2.Init(0, rng.New(1))
	if n2.InitError() == nil {
		t.Fatal("InitError() = nil for an invalid prog config")
	}

	d, err := topology.Line(2, 2, sinr.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.NewEngine(ch, []sim.Node{New(bad, nil), New(testConfig(16), nil)}, sim.Config{Seed: 1})
	if err == nil {
		t.Fatal("NewEngine accepted a node with an invalid MAC config")
	}
	// A valid node reports no error.
	ok := New(testConfig(16), nil)
	ok.Init(0, rng.New(1))
	if err := ok.InitError(); err != nil {
		t.Fatalf("InitError() = %v for a valid config", err)
	}
}

// TestAutomatonTickAllocFree holds an idle combined-MAC node — no ongoing
// broadcast, outside every sender set — to zero allocations per Tick and
// Receive over two approximate-progress epochs. The frames it
// hears cover both halves' kinds; the data message was delivered once
// before measuring, so its repeats take the duplicate path.
func TestAutomatonTickAllocFree(t *testing.T) {
	cfg := testConfig(8)
	n := New(cfg, nil)
	n.Init(3, rng.New(1))
	if err := n.InitError(); err != nil {
		t.Fatal(err)
	}
	m := core.Message{ID: 1, Origin: 1}
	frames := []sim.Frame{
		{From: 1, Kind: approgress.FrameID, Payload: &approgress.IDPayload{ID: 1}},
		{From: 1, Kind: approgress.FrameList, Payload: &approgress.ListPayload{ID: 1, Potentials: []int{3}}},
		{From: 1, Kind: approgress.FrameMIS, Payload: &approgress.MISPayload{ID: 1}},
		{From: 1, Kind: approgress.FrameData, Msg: m},
		{From: 1, Kind: hmbcast.FrameKind, Msg: m},
	}
	n.Receive(0, &frames[3])
	// One run spans two whole epochs, so an allocation made only at phase
	// or round boundaries still counts (AllocsPerRun rounds per-run
	// averages down).
	var f sim.Frame
	slot, span := int64(0), 2*cfg.EpochLen()
	allocs := testing.AllocsPerRun(2, func() {
		for end := slot + span; slot < end; slot++ {
			n.Tick(slot, &f)
			n.Receive(slot, &frames[slot%int64(len(frames))])
		}
	})
	if allocs != 0 {
		t.Fatalf("idle node allocates %v objects per two epochs (%d slots), want 0", allocs, span)
	}
}

// oneShotLayer broadcasts a single message at a given slot and records
// callbacks.
type oneShotLayer struct {
	core.NopLayer
	mac     core.MAC
	msg     core.Message
	bcastAt int64
	sent    bool
	rcvs    []core.Message
	acks    []core.Message
}

func (l *oneShotLayer) Attach(node int, mac core.MAC, src *rng.Source) { l.mac = mac }

func (l *oneShotLayer) OnSlot(slot int64) {
	if !l.sent && l.msg.ID != 0 && slot >= l.bcastAt {
		l.mac.Bcast(slot, l.msg)
		l.sent = true
	}
}

func (l *oneShotLayer) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }
func (l *oneShotLayer) OnAck(slot int64, m core.Message) { l.acks = append(l.acks, m) }

// buildMACScenario wires combined-MAC nodes over a deployment.
func buildMACScenario(t *testing.T, d *topology.Deployment, cfg Config, seed uint64) (*sim.Engine, []*Node, []*oneShotLayer, *core.Recorder) {
	t.Helper()
	rec := core.NewRecorder()
	simNodes := make([]sim.Node, d.NumNodes())
	macNodes := make([]*Node, d.NumNodes())
	layers := make([]*oneShotLayer, d.NumNodes())
	for i := range simNodes {
		n := New(cfg, rec)
		layers[i] = &oneShotLayer{}
		n.SetLayer(layers[i])
		macNodes[i] = n
		simNodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, simNodes, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng, macNodes, layers, rec
}

func TestCombinedMACAcksAndDelivers(t *testing.T) {
	d, err := topology.Clusters(1, 8, sinr.DefaultParams(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	eng, _, layers, rec := buildMACScenario(t, d, cfg, 5)
	layers[0].msg = core.Message{ID: 11, Origin: 0, Payload: "combined"}

	eng.Run(cfg.AckDeadline(), func() bool { return len(layers[0].acks) > 0 })
	if len(layers[0].acks) != 1 {
		t.Fatalf("broadcaster acks = %d", len(layers[0].acks))
	}
	// All neighbours got the message before the ack (nice execution).
	rep := core.CheckAcks(rec.Events(), d.StrongGraph())
	if rep.Acked != 1 || rep.Violations != 0 {
		t.Fatalf("ack report = %+v", rep)
	}
	for i := 1; i < len(layers); i++ {
		if len(layers[i].rcvs) == 0 {
			t.Fatalf("node %d never received the broadcast", i)
		}
	}
}

func TestCombinedMACSlotMultiplexing(t *testing.T) {
	// Frames produced on even engine slots must be acknowledgment frames,
	// frames on odd slots approximate-progress frames.
	d, err := topology.Clusters(1, 6, sinr.DefaultParams(20), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	eng, _, layers, _ := buildMACScenario(t, d, cfg, 9)
	for i := range layers {
		layers[i].msg = core.Message{ID: core.MessageID(100 + i), Origin: i}
	}
	bad := 0
	eng.AddObserver(sim.ObserverFunc(func(slot int64, tx []int, rec []sinr.Reception) {}))
	// Use a custom observer through engine stepping: inspect frames via the
	// node Tick return values by wrapping Step manually.
	var fr sim.Frame
	for slot := int64(0); slot < 400; slot++ {
		for id := 0; id < d.NumNodes(); id++ {
			n := eng.Node(id).(*Node)
			if !n.Tick(slot, &fr) {
				continue
			}
			even := slot%2 == 0
			isAck := fr.Kind == hmbcast.FrameKind
			if even != isAck {
				bad++
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d frames violated the even/odd multiplexing", bad)
	}
}

func TestCombinedMACBusyAbort(t *testing.T) {
	rec := core.NewRecorder()
	n := New(testConfig(8), rec)
	n.Init(0, rng.New(1))
	if n.Busy() {
		t.Fatal("fresh node busy")
	}
	n.Bcast(0, core.Message{ID: 1, Origin: 0})
	if !n.Busy() {
		t.Fatal("not busy after Bcast")
	}
	n.Bcast(1, core.Message{ID: 2, Origin: 0}) // ignored
	if got := len(rec.EventsOfKind(core.EventBcast)); got != 1 {
		t.Fatalf("bcast events = %d", got)
	}
	n.Abort(2, 1)
	if n.Busy() {
		t.Fatal("busy after abort")
	}
	if got := len(rec.EventsOfKind(core.EventAbort)); got != 1 {
		t.Fatalf("abort events = %d", got)
	}
	// No ack may fire afterwards.
	var fr sim.Frame
	for slot := int64(3); slot < 2000; slot++ {
		n.Tick(slot, &fr)
	}
	if got := len(rec.EventsOfKind(core.EventAck)); got != 0 {
		t.Fatalf("ack fired after abort: %d", got)
	}
	if n.ID() != 0 || n.ProgressAutomaton() == nil {
		t.Fatal("accessors broken")
	}
}

func TestCombinedMACFrameRouting(t *testing.T) {
	rec := core.NewRecorder()
	n := New(testConfig(8), rec)
	layer := &oneShotLayer{}
	n.SetLayer(layer)
	n.Init(1, rng.New(2))
	// A data frame from either half produces exactly one rcv upward.
	m := core.Message{ID: 3, Origin: 0}
	n.Receive(4, &sim.Frame{From: 0, Kind: hmbcast.FrameKind, Msg: m})
	n.Receive(5, &sim.Frame{From: 0, Kind: approgress.FrameData, Msg: m})
	if len(layer.rcvs) != 1 {
		t.Fatalf("rcvs = %d, want 1 (deduplicated across halves)", len(layer.rcvs))
	}
	m2 := core.Message{ID: 4, Origin: 0}
	n.Receive(6, &sim.Frame{From: 0, Kind: approgress.FrameData, Msg: m2})
	if len(layer.rcvs) != 2 {
		t.Fatalf("rcvs = %d, want 2", len(layer.rcvs))
	}
	// Control frames of the progress half do not produce rcv events.
	n.Receive(7, &sim.Frame{From: 0, Kind: approgress.FrameID, Payload: &approgress.IDPayload{Phase: 0, ID: 0}})
	if len(layer.rcvs) != 2 {
		t.Fatal("control frame produced a rcv event")
	}
}

func TestCombinedMACApproxProgressUnderContention(t *testing.T) {
	// A dense cluster of broadcasters around a listener: the listener must
	// receive something within a bounded number of odd-slot epochs, even
	// before any acknowledgment completes.
	d, err := topology.Clusters(1, 20, sinr.DefaultParams(30), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	eng, _, layers, rec := buildMACScenario(t, d, cfg, 13)
	for i := 1; i < len(layers); i++ {
		layers[i].msg = core.Message{ID: core.MessageID(200 + i), Origin: i}
	}
	listenerGotIt := func() bool { return len(layers[0].rcvs) > 0 }
	eng.Run(3*cfg.EpochLen(), listenerGotIt)
	if !listenerGotIt() {
		t.Fatalf("listener received nothing within 3 epochs (%d slots)", 3*cfg.EpochLen())
	}
	prog := core.MeasureProgress(rec.Events(), d.StrongGraph(), d.ApproxGraph(), eng.Slot())
	if prog.Satisfied == 0 {
		t.Fatal("no satisfied approximate-progress samples")
	}
}
