package workpool

import (
	"runtime"
	"sync"
	"testing"
)

// coverTask records, per index, how often it ran and which worker ran it.
type coverTask struct {
	got []int32
}

func (t *coverTask) RunChunk(lo, hi, worker int) {
	for i := lo; i < hi; i++ {
		t.got[i]++
	}
}

func checkCovered(t *testing.T, task *coverTask, label string) {
	t.Helper()
	for i, c := range task.got {
		if c != 1 {
			t.Fatalf("%s: index %d ran %d times, want 1", label, i, c)
		}
	}
}

func TestSessionCoversEveryIndexExactlyOnce(t *testing.T) {
	p := New()
	defer p.Close()
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, phases := range []int{1, 2, 3, 5} {
				p.Begin(workers)
				tasks := make([]*coverTask, phases)
				for ph := range tasks {
					tasks[ph] = &coverTask{got: make([]int32, n)}
					p.Run(n, workers, tasks[ph])
				}
				p.End()
				for _, task := range tasks {
					checkCovered(t, task, "session phase")
				}
			}
		}
	}
}

func TestSessionMixedPhaseWidths(t *testing.T) {
	// Phases inside one session may use fewer workers than the session
	// width (down to inline), and Run requests wider than the session are
	// clamped to it.
	p := New()
	defer p.Close()
	const n = 257
	p.Begin(4)
	for _, w := range []int{4, 1, 2, 16, 3, 1, 4} {
		task := &coverTask{got: make([]int32, n)}
		p.Run(n, w, task)
		checkCovered(t, task, "mixed-width phase")
	}
	p.End()
}

// TestSessionManyPhases drives one session through the phase counts a
// batched engine micro-batch produces — 3 phases per slot for 64-slot
// batches, with narrow (inline) phases interleaved like the engine's serial
// leader sections — verifying the atomic phase generation and the
// spin-then-park barrier stay correct far past the handful of phases the
// per-slot drivers use.
func TestSessionManyPhases(t *testing.T) {
	p := New()
	defer p.Close()
	const n = 64
	for _, workers := range []int{2, 4, 8} {
		p.Begin(workers)
		for phase := 0; phase < 3*64; phase++ {
			w := workers
			if phase%3 == 2 {
				w = 1 // serial interlude, runs inline on the leader
			}
			task := &coverTask{got: make([]int32, n)}
			p.Run(n, w, task)
			checkCovered(t, task, "many-phase session")
		}
		p.End()
	}
}

// TestSessionBarrierStress runs many short sessions of many phases with
// more helpers than a small host has CPUs, so helpers are regularly
// descheduled between the steps of a barrier handoff. Each phase must run
// every index exactly once before Run returns: a wake claimed for the
// wrong phase releases a helper or the leader from a barrier early, which
// shows up here as an index run zero or two times (or as a race report or
// a deadlock).
func TestSessionBarrierStress(t *testing.T) {
	p := New()
	defer p.Close()
	const n, workers = 16, 8
	task := &coverTask{got: make([]int32, n)}
	for sess := 0; sess < 1000; sess++ {
		p.Begin(workers)
		for phase := 0; phase < 200; phase++ {
			clear(task.got)
			p.Run(n, workers, task)
			for i, c := range task.got {
				if c != 1 {
					t.Fatalf("session %d phase %d: index %d ran %d times, want 1", sess, phase, i, c)
				}
			}
		}
		p.End()
	}
}

func TestSessionWithoutPhases(t *testing.T) {
	// A session whose phases all run inline (or that has none) never wakes
	// a helper; Begin/End must still pair cleanly, repeatedly.
	p := New()
	defer p.Close()
	for i := 0; i < 100; i++ {
		p.Begin(4)
		task := &coverTask{got: make([]int32, 3)}
		p.Run(3, 1, task) // inline: below the parallel threshold
		checkCovered(t, task, "inline phase")
		p.End()
	}
}

func TestSessionsInterleaveWithPlainRuns(t *testing.T) {
	p := New()
	defer p.Close()
	const n = 500
	for i := 0; i < 50; i++ {
		plain := &coverTask{got: make([]int32, n)}
		p.Run(n, 4, plain)
		checkCovered(t, plain, "plain run")
		p.Begin(4)
		for ph := 0; ph < 3; ph++ {
			task := &coverTask{got: make([]int32, n)}
			p.Run(n, 4, task)
			checkCovered(t, task, "session phase")
		}
		p.End()
	}
}

func TestSessionInSession(t *testing.T) {
	p := New()
	defer p.Close()
	if p.InSession() {
		t.Fatal("fresh pool reports an open session")
	}
	p.Begin(2)
	if !p.InSession() {
		t.Fatal("InSession false after Begin")
	}
	p.End()
	if p.InSession() {
		t.Fatal("InSession true after End")
	}
}

func TestNestedBeginPanics(t *testing.T) {
	p := New()
	defer p.Close()
	p.Begin(2)
	defer p.End()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	p.Begin(2)
}

func TestEndWithoutBeginPanics(t *testing.T) {
	p := New()
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	p.End()
}

func TestSessionSteadyStateAllocFree(t *testing.T) {
	p := New()
	defer p.Close()
	task := &allocTask{}
	slot := func() {
		p.Begin(4)
		p.Run(1024, 4, task)
		p.Run(1024, 2, task)
		p.Run(1024, 4, task)
		p.End()
	}
	slot() // spawn helpers, grow park flags
	if allocs := testing.AllocsPerRun(50, slot); allocs != 0 {
		t.Fatalf("steady-state session allocates %.1f objects, want 0", allocs)
	}
}

// waitGoroutines polls until the live goroutine count drops to at most
// want, reporting the final count.
func waitGoroutines(want int) int {
	var g int
	for i := 0; i < 2000; i++ {
		g = runtime.NumGoroutine()
		if g <= want {
			return g
		}
		runtime.Gosched()
	}
	return g
}

func TestGoroutineLeakAcrossPoolLifecycles(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := New()
		task := &allocTask{}
		p.Run(256, 4, task)
		p.Begin(4)
		p.Run(256, 4, task)
		p.End()
		p.Close()
	}
	if g := waitGoroutines(before); g > before {
		t.Fatalf("goroutines grew from %d to %d across 20 pool lifecycles", before, g)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	p := New()
	task := &allocTask{}
	p.Run(64, 4, task)
	p.Close()
	p.Close() // idempotent
	// And concurrently, from many goroutines at once.
	q := New()
	q.Run(64, 4, task)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Close()
		}()
	}
	wg.Wait()
	// Close on a pool that never spawned helpers.
	New().Close()
}

func TestCloseVsWakeRace(t *testing.T) {
	// Hammer the window between a Run (or session End) returning and the
	// helpers re-parking on their wake channels: Close fires from another
	// goroutine the moment the owner finishes, while the helpers may still
	// be between their WaitGroup rendezvous and their next channel select.
	// Run under -race this exercises the stop/wake handoff; the test fails
	// by deadlock (test timeout) or detector report, not by assertion.
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p := New()
		task := &allocTask{}
		if i%2 == 0 {
			p.Run(128, 4, task)
		} else {
			p.Begin(4)
			p.Run(128, 4, task)
			p.Run(128, 4, task)
			p.End()
		}
		done := make(chan struct{})
		go func() {
			p.Close()
			close(done)
		}()
		p.Close() // racing double close from the owner
		<-done
	}
	if g := waitGoroutines(before + 4); g > before+4 {
		t.Fatalf("goroutines grew from %d to %d across Close races", before, g)
	}
}

func BenchmarkSession3Phases4Workers(b *testing.B) {
	p := New()
	defer p.Close()
	task := &allocTask{}
	p.Begin(4)
	p.Run(4096, 4, task)
	p.End()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin(4)
		p.Run(4096, 4, task)
		p.Run(4096, 4, task)
		p.Run(4096, 4, task)
		p.End()
	}
}
