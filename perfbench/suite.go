package main

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sinrmac/internal/exp"
)

// suiteNames are the exp.Registry runners the suite workload runs, in the
// order it runs them. "scale" (E9, 173 s at full size) is left out.
var suiteNames = []string{"ack", "proglb", "approg", "decay", "smb", "mmb", "cons", "churn", "fault"}

// suiteWorkers is the scheduler's worker count, nproc on the 2-CPU host the
// bounds were set on. With one worker a full-size pass takes 24–30 s there,
// so a run could hold only two passes; the tables are bit-identical at any
// worker count and are still checked against `-workers 1` output.
const suiteWorkers = 2

// startupRepeats is how many times a pass repeats the benchmark's own
// start-up, to report the median.
const startupRepeats = 25

// suite runs the full-size runners at expSeed. The pass is pinned to one
// seed (default 1, the cmd/experiments default) rather than following the
// workload seed because its cost depends on the seed far more than on the
// code: E4's trials run until a random first reception, and E4 alone took
// 4.6–20.8 s over seeds 1–12.
type suite struct{ expSeed uint64 }

func newSuite(expSeed uint64) (runner, error) {
	for _, name := range suiteNames {
		if _, ok := readGolden(fmt.Sprintf("suite/seed-1/%s.txt", name)); !ok {
			return nil, fmt.Errorf("suite: missing default-seed golden %s", name)
		}
	}
	return &suite{expSeed: expSeed}, nil
}

// startup is the benchmark's own start-up for a pass: it looks the runners
// up in the registry and loads what their tables are checked against.
func (s *suite) startup() (runners []exp.Runner, wants []golden) {
	reg := exp.Registry()
	for _, name := range suiteNames {
		runners = append(runners, reg[name])
		wants = append(wants, suiteGolden(s.expSeed, name))
	}
	return runners, wants
}

func (s *suite) pass(tr *trace) passResult {
	var res passResult
	// The runners build their deployments inside their trial jobs, so the
	// suite's set-up is only the benchmark's own start-up.
	var (
		runners []exp.Runner
		wants   []golden
	)
	setups := make([]float64, startupRepeats)
	for i := range setups {
		t0 := time.Now()
		runners, wants = s.startup()
		setups[i] = float64(time.Since(t0))
	}
	res.setup = time.Duration(median(setups))
	res.heap = settledHeap(tr)

	// The scheduler polls Interrupt once before every trial job: the
	// suite's steps.
	var jobs atomic.Int64
	cfg := exp.Config{Seed: s.expSeed, Workers: suiteWorkers, Interrupt: func() bool {
		jobs.Add(1)
		return false
	}}
	for i, run := range runners {
		t0 := time.Now()
		table, err := run(cfg)
		res.stepping += time.Since(t0)
		tr.span("exp."+suiteNames[i]+".s", t0)
		text := tableText(table, err)
		res.outputs = append(res.outputs, textDigest(text))
		if !wants[i].check(text) {
			fmt.Fprintf(os.Stderr, "perfbench: suite table %s at exp seed %d failed its check:\n%s", suiteNames[i], s.expSeed, text)
			res.failed++
		}
	}
	res.steps = int(jobs.Load())
	res.wall = res.setup + res.stepping
	return res
}

// tableText renders a runner's result as cmd/experiments prints it.
func tableText(t exp.Table, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return t.Format()
}

// golden is what one suite table is checked against: the recorded table
// when one exists for the seed, otherwise the default seed's table shape.
type golden struct {
	text, shape string
	exact       bool
}

func suiteGolden(seed uint64, name string) golden {
	if want, ok := readGolden(fmt.Sprintf("suite/seed-%d/%s.txt", seed, name)); ok {
		return golden{text: want, exact: true}
	}
	def, _ := readGolden(fmt.Sprintf("suite/seed-1/%s.txt", name))
	return golden{shape: tableShape(def)}
}

// check compares a table with the recorded one, or, for a seed without
// one, its shape with the default seed's: the same title and columns, the
// same number of rows and the same sweep values in the first column.
func (g golden) check(got string) bool {
	if g.exact {
		return got == g.text
	}
	return tableShape(got) == g.shape
}

// tableShape reduces an exp.Table rendering to its seed-independent parts.
func tableShape(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 3 {
		return ""
	}
	shape := []string{lines[0], strings.Join(strings.Fields(lines[1]), " ")}
	for _, row := range lines[3:] {
		if strings.HasPrefix(row, "note: ") {
			break
		}
		if f := strings.Fields(row); len(f) > 0 {
			shape = append(shape, f[0])
		}
	}
	return strings.Join(shape, "\n")
}
