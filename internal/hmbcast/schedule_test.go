package hmbcast

import (
	"math"
	"strconv"
	"testing"

	"sinrmac/internal/rng"
)

// TestScheduleMatchesAccessors pins the automaton's cached schedule to the
// Config accessors the experiment harness sizes its deadlines with.
func TestScheduleMatchesAccessors(t *testing.T) {
	cfgs := map[string]Config{}
	for _, lambda := range []float64{1, 16, 1024, 1e6} {
		name := strconv.FormatFloat(lambda, 'g', -1, 64)
		cfgs["default/"+name] = DefaultConfig(lambda, 0.1)
		tuned := DefaultConfig(lambda, 0.01)
		tuned.StepFactor, tuned.HaltFactor, tuned.FallbackFactor, tuned.PMax = 1, 4, 3, 0.25
		cfgs["tuned/"+name] = tuned
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			aut, err := NewAutomaton(cfg, rng.New(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			s, nTilde := aut.sched, cfg.ContentionBound()
			if s.stepLen != cfg.StepLen() {
				t.Errorf("stepLen = %d, StepLen() = %d", s.stepLen, cfg.StepLen())
			}
			if math.Float64bits(s.haltBudget) != math.Float64bits(cfg.HaltBudget()) {
				t.Errorf("haltBudget = %v, HaltBudget() = %v", s.haltBudget, cfg.HaltBudget())
			}
			if s.fallbackThreshold != cfg.FallbackThreshold() {
				t.Errorf("fallbackThreshold = %d, FallbackThreshold() = %d", s.fallbackThreshold, cfg.FallbackThreshold())
			}
			if s.pMax != cfg.withDefaults().PMax {
				t.Errorf("pMax = %v, PMax = %v", s.pMax, cfg.withDefaults().PMax)
			}
			if want := 1 / (128 * nTilde); math.Float64bits(s.pFloor) != math.Float64bits(want) {
				t.Errorf("pFloor = %v, want 1/(128·Ñ) = %v", s.pFloor, want)
			}
			// MaxSlots assumes the probability never drops below the floor.
			if s.pStart < s.pFloor {
				t.Errorf("pStart = %v below pFloor = %v", s.pStart, s.pFloor)
			}
			if cfg.MaxSlots() < int64(s.stepLen) {
				t.Errorf("MaxSlots() = %d below one step", cfg.MaxSlots())
			}
		})
	}
}
