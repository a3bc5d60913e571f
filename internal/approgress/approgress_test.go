package approgress

import (
	"math"
	"testing"

	"sinrmac/internal/core"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/topology"
)

// testConfig returns a configuration tuned so that the algorithm completes
// quickly in small unit tests: smaller Q (more data transmissions) and a
// longer discovery block (more reliable neighbourhood estimation).
func testConfig(lambda float64) Config {
	cfg := DefaultConfig(lambda, 0.1, 3)
	cfg.QScale = 0.25
	cfg.TFactor = 4
	cfg.MISRounds = 4
	cfg.DataFactor = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(16, 0.1, 3).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{Lambda: 0.5, EpsApprog: 0.1, Alpha: 3},
		{Lambda: 16, EpsApprog: 0, Alpha: 3},
		{Lambda: 16, EpsApprog: 1.2, Alpha: 3},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 2},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, P: 0.7},
		// Non-finite parameters.
		{Lambda: nan, EpsApprog: 0.1, Alpha: 3},
		{Lambda: inf, EpsApprog: 0.1, Alpha: 3},
		{Lambda: 16, EpsApprog: nan, Alpha: 3},
		{Lambda: 16, EpsApprog: 0.1, Alpha: nan},
		{Lambda: 16, EpsApprog: 0.1, Alpha: inf},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, P: nan},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, QScale: inf},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, TFactor: nan},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, DataFactor: inf},
		// Finite parameters whose derived epoch overflows.
		{Lambda: 1e6, EpsApprog: 0.1, Alpha: 60},
		{Lambda: 1e300, EpsApprog: 1e-300, Alpha: 3},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, TFactor: 1e300},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, Phases: 1 << 60},
		{Lambda: 16, EpsApprog: 0.1, Alpha: 3, MISRounds: 1 << 60},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d (%+v) validated", i, c)
		}
	}
}

func TestConfigDerivedLengths(t *testing.T) {
	cfg := DefaultConfig(32, 0.1, 3)
	if cfg.T() <= 0 || cfg.Q() < 1 || cfg.DataSlots() <= 0 {
		t.Fatal("derived quantities must be positive")
	}
	if cfg.PhaseCount() < 2 {
		t.Fatalf("PhaseCount = %d", cfg.PhaseCount())
	}
	wantPhase := int64(2*cfg.T()) + int64(cfg.MISRoundCount()*cfg.T()) + int64(cfg.DataSlots())
	if got := cfg.PhaseLen(); got != wantPhase {
		t.Fatalf("PhaseLen = %d, want %d", got, wantPhase)
	}
	if got := cfg.EpochLen(); got != wantPhase*int64(cfg.PhaseCount()) {
		t.Fatalf("EpochLen = %d", got)
	}
	// Larger Λ gives more phases and a larger Q.
	big := DefaultConfig(1024, 0.1, 3)
	if big.PhaseCount() <= cfg.PhaseCount() || big.Q() <= cfg.Q() {
		t.Fatal("phase structure not monotone in Λ")
	}
	// The approximate-progress machinery does not depend on any degree
	// parameter: the epoch length is a function of Λ, ε and α only.
	if cfg.EpochLen() != DefaultConfig(32, 0.1, 3).EpochLen() {
		t.Fatal("epoch length not deterministic in its parameters")
	}
}

func TestAutomatonConstructorErrors(t *testing.T) {
	if _, err := NewAutomaton(Config{Lambda: 0, EpsApprog: 0.1, Alpha: 3}, 0, rng.New(1), nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewAutomaton(DefaultConfig(8, 0.1, 3), 0, nil, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// tick drives one automaton Tick with a throwaway pooled frame, returning
// the transmitted frame (nil when the automaton listened).
func tick(a *Automaton) *sim.Frame {
	var f sim.Frame
	if a.Tick(&f) {
		return &f
	}
	return nil
}

func TestAutomatonIdleWithoutBroadcast(t *testing.T) {
	aut, err := NewAutomaton(testConfig(8), 0, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < aut.sched.epochLen+10; i++ {
		if tick(aut) != nil {
			t.Fatal("idle automaton transmitted")
		}
	}
	if aut.Broadcasting() || aut.SenderActive() || aut.EpochSender() {
		t.Fatal("idle automaton claims to be active")
	}
}

func TestAutomatonJoinsAtEpochBoundary(t *testing.T) {
	cfg := testConfig(8)
	aut, err := NewAutomaton(cfg, 0, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Burn half an epoch, then start a broadcast: the node must not join
	// S₁ until the next epoch boundary.
	for i := int64(0); i < cfg.EpochLen()/2; i++ {
		tick(aut)
	}
	aut.Start(core.Message{ID: 1, Origin: 0})
	if !aut.Broadcasting() {
		t.Fatal("not broadcasting after Start")
	}
	for i := cfg.EpochLen() / 2; i < cfg.EpochLen(); i++ {
		tick(aut)
		if aut.EpochSender() {
			t.Fatal("node joined S₁ in the middle of an epoch")
		}
	}
	tick(aut) // first slot of the next epoch
	if !aut.EpochSender() || !aut.SenderActive() {
		t.Fatal("node did not join S₁ at the epoch boundary")
	}
}

func TestAutomatonTransmitsAllFrameKindsWhenAlone(t *testing.T) {
	cfg := testConfig(8)
	aut, err := NewAutomaton(cfg, 3, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(core.Message{ID: 9, Origin: 3})
	kinds := map[sim.FrameKind]int{}
	for i := int64(0); i < cfg.EpochLen(); i++ {
		if f := tick(aut); f != nil {
			kinds[f.Kind]++
		}
	}
	for _, k := range []sim.FrameKind{FrameID, FrameList, FrameMIS, FrameData} {
		if kinds[k] == 0 {
			t.Fatalf("automaton never transmitted %s frames; got %v", k, kinds)
		}
	}
	// A lone node must end every phase as a dominator (trivial local
	// minimum) and therefore stay in S_φ throughout.
	if !aut.SenderActive() {
		t.Fatal("lone broadcaster dropped out of the sender set")
	}
}

// TestLastListDecidesConfirmation delivers node 1's potential list to node
// 3 twice in one phase. Only the last list counts towards the
// mutual-confirmation rule, whichever of the two names node 3.
func TestLastListDecidesConfirmation(t *testing.T) {
	list := func(pots ...int) *sim.Frame {
		return &sim.Frame{From: 1, Kind: FrameList, Payload: &ListPayload{ID: 1, Potentials: pots}}
	}
	for _, c := range []struct {
		name        string
		first, last *sim.Frame
		want        bool
	}{
		{"named-then-dropped", list(2, 3), list(2), false},
		{"dropped-then-named", list(2), list(3, 4), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			aut, err := NewAutomaton(testConfig(8), 3, rng.New(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			aut.phaseSender = true
			aut.resetPhase()
			aut.potentials = append(aut.potentials, 1)
			aut.Receive(c.first)
			aut.Receive(c.last)
			aut.finalizeNeighbors()
			if got := aut.neighbors[1]; got != c.want {
				t.Fatalf("node 3 counts node 1 as a neighbour: %v, want %v", got, c.want)
			}
		})
	}
}

func TestAutomatonAbortStopsData(t *testing.T) {
	cfg := testConfig(8)
	aut, err := NewAutomaton(cfg, 0, rng.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	aut.Start(core.Message{ID: 1, Origin: 0})
	aut.Abort()
	if aut.Broadcasting() {
		t.Fatal("still broadcasting after abort")
	}
	for i := int64(0); i < cfg.EpochLen(); i++ {
		if f := tick(aut); f != nil && f.Kind == FrameData {
			t.Fatal("aborted automaton transmitted data")
		}
	}
}

func TestAutomatonReceiveDataCallback(t *testing.T) {
	var got []core.Message
	aut, err := NewAutomaton(testConfig(8), 1, rng.New(5), func(m core.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	aut.Receive(nil)
	aut.Receive(&sim.Frame{Kind: sim.RegisterFrameKind("decay.data"), Msg: core.Message{ID: 3}})
	aut.Receive(&sim.Frame{Kind: FrameData, Msg: core.Message{ID: 4, Origin: 2}})
	if len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("onData saw %+v", got)
	}
}

// buildScenario builds a deployment, a recorder and one approgress Node per
// deployment node; broadcasters[i] == true makes node i broadcast message
// id 1000+i at slot 0.
func buildScenario(t *testing.T, d *topology.Deployment, cfg Config, broadcasters []bool, seed uint64) (*sim.Engine, []*Node, *core.Recorder) {
	t.Helper()
	rec := core.NewRecorder()
	nodes := make([]sim.Node, d.NumNodes())
	apNodes := make([]*Node, d.NumNodes())
	for i := range nodes {
		n := NewNode(cfg, 0, rec)
		apNodes[i] = n
		nodes[i] = n
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(ch, nodes, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range broadcasters {
		if b {
			apNodes[i].Bcast(0, core.Message{ID: core.MessageID(1000 + i), Origin: i})
		}
	}
	return eng, apNodes, rec
}

func TestSingleBroadcasterDeliversWithinEpochs(t *testing.T) {
	d, err := topology.Clusters(1, 8, sinr.DefaultParams(20), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	broadcasters := make([]bool, d.NumNodes())
	broadcasters[0] = true
	eng, _, rec := buildScenario(t, d, cfg, broadcasters, 31)

	deadline := 3 * cfg.EpochLen()
	eng.Run(deadline, func() bool {
		return len(rec.EventsOfKind(core.EventRcv)) >= d.NumNodes()-1
	})
	rcvs := rec.EventsOfKind(core.EventRcv)
	received := map[int]bool{}
	for _, ev := range rcvs {
		if ev.Msg.ID == 1000 {
			received[ev.Node] = true
		}
	}
	if len(received) < d.NumNodes()-1 {
		t.Fatalf("only %d of %d neighbours received the broadcast within %d slots",
			len(received), d.NumNodes()-1, deadline)
	}
}

func TestApproxProgressInDenseCluster(t *testing.T) {
	// Every node in a dense cluster broadcasts; a designated listener node
	// must receive something within a small number of epochs even though
	// the contention equals the cluster size.
	d, err := topology.Clusters(1, 24, sinr.DefaultParams(30), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	broadcasters := make([]bool, d.NumNodes())
	for i := 1; i < d.NumNodes(); i++ {
		broadcasters[i] = true
	}
	eng, _, rec := buildScenario(t, d, cfg, broadcasters, 35)

	listenerGotIt := func() bool {
		for _, ev := range rec.EventsOfKind(core.EventRcv) {
			if ev.Node == 0 {
				return true
			}
		}
		return false
	}
	eng.Run(3*cfg.EpochLen(), listenerGotIt)
	if !listenerGotIt() {
		t.Fatalf("listener received nothing within 3 epochs (%d slots) despite %d broadcasting neighbours",
			3*cfg.EpochLen(), d.NumNodes()-1)
	}
	// The progress checker agrees that approximate progress was made for
	// the listener with respect to G_{1-2ε}.
	prog := core.MeasureProgress(rec.Events(), d.StrongGraph(), d.ApproxGraph(), eng.Slot())
	if prog.Satisfied == 0 {
		t.Fatal("no satisfied approximate-progress samples")
	}
}

func TestSparsificationReducesSenderSet(t *testing.T) {
	// Two dense clusters of broadcasters: by the last phase of an epoch the
	// surviving sender set S_Φ must be strictly smaller than S₁, because
	// the per-phase MIS removes dominated cluster-mates.
	d, err := topology.Clusters(2, 8, sinr.DefaultParams(20), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d.Lambda())
	cfg.TFactor = 10 // long discovery blocks so H̃̃ is reliably discovered
	broadcasters := make([]bool, d.NumNodes())
	for i := range broadcasters {
		broadcasters[i] = true
	}
	eng, apNodes, _ := buildScenario(t, d, cfg, broadcasters, 43)

	// Run until the start of the last phase's data block of the first
	// epoch, at which point S_Φ membership has been decided.
	lastPhaseStart := int64(cfg.PhaseCount()-1) * cfg.PhaseLen()
	_, misEnd := func() (int64, int64) {
		t := int64(cfg.T())
		return t, 2*t + int64(cfg.MISRoundCount())*t
	}()
	eng.Run(lastPhaseStart+misEnd+1, nil)

	active := 0
	for _, n := range apNodes {
		if n.Automaton().SenderActive() {
			active++
		}
	}
	if active == 0 {
		t.Fatal("sender set collapsed to zero before the last phase")
	}
	if active >= d.NumNodes() {
		t.Fatalf("no sparsification: %d of %d nodes still in S_Φ", active, d.NumNodes())
	}
}

func TestNodeAckTimerAndAbort(t *testing.T) {
	rec := core.NewRecorder()
	n := NewNode(testConfig(8), 50, rec)
	layer := &captureLayer{}
	n.SetLayer(layer)
	n.Init(2, rng.New(7))
	n.Bcast(0, core.Message{ID: 5, Origin: 2})
	if !n.Busy() {
		t.Fatal("node not busy after Bcast")
	}
	var fr sim.Frame
	for slot := int64(0); slot < 60; slot++ {
		n.Tick(slot, &fr)
	}
	if n.Busy() {
		t.Fatal("node still busy after the ack timer")
	}
	if len(layer.acks) != 1 || layer.acks[0].ID != 5 {
		t.Fatalf("acks = %+v", layer.acks)
	}
	if got := len(rec.EventsOfKind(core.EventAck)); got != 1 {
		t.Fatalf("ack events = %d", got)
	}

	// Abort before the timer suppresses the ack.
	n.Bcast(100, core.Message{ID: 6, Origin: 2})
	n.Abort(101, 6)
	for slot := int64(101); slot < 300; slot++ {
		n.Tick(slot, &fr)
	}
	if got := len(rec.EventsOfKind(core.EventAck)); got != 1 {
		t.Fatalf("ack fired for aborted message: %d acks", got)
	}
}

func TestNodeRcvDeduplication(t *testing.T) {
	rec := core.NewRecorder()
	n := NewNode(testConfig(8), 0, rec)
	layer := &captureLayer{}
	n.SetLayer(layer)
	n.Init(1, rng.New(8))
	m := core.Message{ID: 7, Origin: 0}
	for i := 0; i < 3; i++ {
		n.Receive(int64(i), &sim.Frame{From: 0, Kind: FrameData, Msg: m})
	}
	if len(layer.rcvs) != 1 {
		t.Fatalf("OnRcv called %d times", len(layer.rcvs))
	}
	// Own messages are never delivered upward.
	n.Receive(5, &sim.Frame{From: 1, Kind: FrameData, Msg: core.Message{ID: 8, Origin: 1}})
	if len(layer.rcvs) != 1 {
		t.Fatal("own message delivered upward")
	}
}

// captureLayer records layer callbacks.
type captureLayer struct {
	core.NopLayer
	rcvs []core.Message
	acks []core.Message
}

func (l *captureLayer) OnRcv(slot int64, m core.Message) { l.rcvs = append(l.rcvs, m) }
func (l *captureLayer) OnAck(slot int64, m core.Message) { l.acks = append(l.acks, m) }

// TestAutomatonTickAllocFree holds a node outside the sender set — the
// common case in every run — to zero allocations per Tick and Receive,
// across every phase and MIS-round boundary of two epochs.
func TestAutomatonTickAllocFree(t *testing.T) {
	cfg := testConfig(8)
	aut, err := NewAutomaton(cfg, 3, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := []sim.Frame{
		{From: 1, Kind: FrameID, Payload: &IDPayload{ID: 1}},
		{From: 1, Kind: FrameList, Payload: &ListPayload{ID: 1, Potentials: []int{3}}},
		{From: 1, Kind: FrameMIS, Payload: &MISPayload{ID: 1}},
		{From: 1, Kind: FrameData, Msg: core.Message{ID: 1, Origin: 1}},
	}
	// One run spans two whole epochs, so an allocation made only at phase
	// or round boundaries still counts (AllocsPerRun rounds per-run
	// averages down).
	var f sim.Frame
	span := 2 * cfg.EpochLen()
	allocs := testing.AllocsPerRun(2, func() {
		for i := int64(0); i < span; i++ {
			aut.Tick(&f)
			aut.Receive(&frames[i%int64(len(frames))])
		}
	})
	if allocs != 0 {
		t.Fatalf("non-sender automaton allocates %v objects per two epochs (%d slots), want 0", allocs, span)
	}
}

func TestNodeInitErrorSurfaced(t *testing.T) {
	bad := DefaultConfig(math.NaN(), 0.1, 3)
	n := NewNode(bad, 10, nil)
	n.Init(0, rng.New(1))
	if n.InitError() == nil {
		t.Fatal("InitError() = nil for an invalid config")
	}
	var f sim.Frame
	if n.Tick(0, &f) {
		t.Fatal("failed node transmitted")
	}
	n.Receive(1, &sim.Frame{Kind: FrameData, Msg: core.Message{ID: 1, Origin: 1}})
	n.Bcast(1, core.Message{ID: 2, Origin: 0})
	if n.Busy() {
		t.Fatal("failed node accepted a broadcast")
	}
	n.Abort(2, 2)

	d, err := topology.Line(2, 2, sinr.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := d.Channel()
	if err != nil {
		t.Fatal(err)
	}
	nodes := []sim.Node{NewNode(testConfig(8), 0, nil), NewNode(bad, 0, nil)}
	if _, err := sim.NewEngine(ch, nodes, sim.Config{Seed: 1}); err == nil {
		t.Fatal("NewEngine accepted a node with an invalid config")
	}
	ok := NewNode(testConfig(8), 0, nil)
	ok.Init(0, rng.New(1))
	if err := ok.InitError(); err != nil {
		t.Fatalf("InitError() = %v for a valid config", err)
	}
}
