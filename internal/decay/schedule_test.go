package decay

import (
	"math"
	"strconv"
	"testing"

	"sinrmac/internal/rng"
)

// TestScheduleMatchesAccessors pins the automaton's cached schedule to the
// Config accessors the experiment harness sizes its deadlines with.
func TestScheduleMatchesAccessors(t *testing.T) {
	for _, delta := range []float64{1, 16, 1024, 1e6} {
		name := strconv.FormatFloat(delta, 'g', -1, 64)
		for kind, cfg := range map[string]Config{
			"default": DefaultConfig(delta, 0.1),
			"tuned":   {DeltaBound: delta, EpsAck: 0.01, AckPhaseFactor: 2.5},
		} {
			t.Run(kind+"/"+name, func(t *testing.T) {
				aut, err := NewAutomaton(cfg, rng.New(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				s := aut.sched
				if s.phaseLen != cfg.PhaseLen() || s.ackPhases != cfg.AckPhases() {
					t.Errorf("phaseLen, ackPhases = %d, %d; PhaseLen(), AckPhases() = %d, %d",
						s.phaseLen, s.ackPhases, cfg.PhaseLen(), cfg.AckPhases())
				}
				if s.phaseLen > len(halvings) {
					t.Errorf("phaseLen = %d exceeds the probability table (%d)", s.phaseLen, len(halvings))
				}
			})
		}
	}
	// The largest finite DeltaBound still fits the table.
	if l := DefaultConfig(math.MaxFloat64, 0.1).PhaseLen(); l != len(halvings) {
		t.Errorf("PhaseLen(MaxFloat64) = %d, table length %d", l, len(halvings))
	}
}

// TestHalvingsMatchPow holds the probability table to the math.Pow(2, -j)
// the automaton used to evaluate per slot, bit for bit.
func TestHalvingsMatchPow(t *testing.T) {
	for j, p := range halvings {
		if want := math.Pow(2, -float64(j)); math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("halvings[%d] = %v, math.Pow(2, -%d) = %v", j, p, j, want)
		}
	}
}
