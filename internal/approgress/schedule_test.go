package approgress

import (
	"math"
	"strconv"
	"testing"

	"sinrmac/internal/rng"
)

// scheduleConfigs covers the configurations the schedule-consistency test
// checks: defaults over four orders of Λ, the structural overrides the
// MAC-level experiments use, this package's test overrides, and explicit
// Phases/LabelRange/NeighborThreshold/P.
func scheduleConfigs() map[string]Config {
	out := map[string]Config{}
	for _, lambda := range []float64{1, 16, 1024, 1e6} {
		out["default/"+ftoa(lambda)] = DefaultConfig(lambda, 0.1, 3)
		exp := DefaultConfig(lambda, 0.1, 3)
		exp.QScale, exp.TFactor, exp.MISRounds, exp.DataFactor = 0.5, 4, 4, 2
		out["experiments/"+ftoa(lambda)] = exp
		out["test/"+ftoa(lambda)] = testConfig(lambda)
	}
	explicit := DefaultConfig(64, 0.05, 4)
	explicit.Phases, explicit.LabelRange, explicit.NeighborThreshold, explicit.P = 3, 77, 3, 0.3
	out["explicit"] = explicit
	return out
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestScheduleMatchesAccessors pins the automaton's cached schedule to the
// Config accessors the experiment harness sizes its deadlines with.
func TestScheduleMatchesAccessors(t *testing.T) {
	for name, cfg := range scheduleConfigs() {
		t.Run(name, func(t *testing.T) {
			aut, err := NewAutomaton(cfg, 0, rng.New(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			s, d := aut.sched, cfg.withDefaults()
			if s.epochLen != cfg.EpochLen() || s.epochLen != int64(cfg.PhaseCount())*s.phaseLen {
				t.Errorf("epochLen = %d, EpochLen() = %d", s.epochLen, cfg.EpochLen())
			}
			if s.phaseLen != cfg.PhaseLen() {
				t.Errorf("phaseLen = %d, PhaseLen() = %d", s.phaseLen, cfg.PhaseLen())
			}
			if s.t != int64(cfg.T()) {
				t.Errorf("t = %d, T() = %d", s.t, cfg.T())
			}
			if want := int64(2+cfg.MISRoundCount()) * int64(cfg.T()); s.misEnd != want {
				t.Errorf("misEnd = %d, want %d", s.misEnd, want)
			}
			if got := s.phaseLen - s.misEnd; got != int64(cfg.DataSlots()) {
				t.Errorf("data block = %d slots, DataSlots() = %d", got, cfg.DataSlots())
			}
			if math.Float64bits(s.p) != math.Float64bits(d.P) {
				t.Errorf("p = %v, P = %v", s.p, d.P)
			}
			if want := d.P / cfg.Q(); math.Float64bits(s.dataP) != math.Float64bits(want) {
				t.Errorf("dataP = %v, P/Q() = %v", s.dataP, want)
			}
			if s.neighborThreshold != d.NeighborThreshold || s.labelRange != d.LabelRange {
				t.Errorf("neighborThreshold, labelRange = %d, %d; want %d, %d",
					s.neighborThreshold, s.labelRange, d.NeighborThreshold, d.LabelRange)
			}
		})
	}
}
