package main

import (
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
)

// ladderStep is one rung of the paper's Fig. 7 cost ladder. Each rung adds
// one mechanism to the one before it.
type ladderStep struct {
	metric, unit string // the per-layer metric of this rung over the one before
	workers      int
	timer        bool // heartbeat polls read the clock (else polls are free)
	opts         core.Options
}

var ladderSteps = []ladderStep{
	// Generic drivers, an effectively infinite chunk, free polls: loop
	// outlining and promotion-point insertion alone.
	{"core.machinery_x", "x", 1, false, core.Options{DisablePromotion: true,
		Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: 1 << 30}}},
	// Static 32-iteration chunks: chunk bookkeeping.
	{"core.chunking_x", "x", 1, false, core.Options{DisablePromotion: true,
		Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: 32}}},
	// The same chunks with clock-reading polls.
	{"pulse.polling_x", "x", 1, true, core.Options{DisablePromotion: true,
		Chunk: core.ChunkPolicy{Kind: core.ChunkStatic, Size: 32}}},
	// Adaptive Chunking in place of static chunks.
	{"core.adaptive_x", "x", 1, true, core.Options{DisablePromotion: true}},
	// Promotions on: the shipping configuration, still on one worker.
	{"core.promotion_x", "x", 1, true, core.Options{}},
	// A second worker to steal what promotions expose (1-worker ÷ 2-worker
	// time, so higher is better).
	{"sched.workers_x", "x", 2, true, core.Options{}},
}

// ladder times every nest on the serial elision and then on each rung, the
// same nests rebound on a fresh team per rung, giving each rung share of d.
// Each rung's outputs are checked once. It reports the rung ratios as
// geomeans over nests, and the cost of one clock-reading poll.
func ladder(nests []libNest, d time.Duration, m metrics) (attempted, failed int, err error) {
	per := d / time.Duration(len(ladderSteps)+1)
	prev := make([]float64, len(nests))
	for i, n := range nests {
		prev[i] = timeRuns(n.serial, per/time.Duration(len(nests)))
	}
	var pollingDeltaMs float64
	var polls float64
	for _, st := range ladderSteps {
		src := func() pulse.Source { return pulse.NewNever() }
		if st.timer {
			src = func() pulse.Source { return pulse.NewTimer() }
		}
		team := sched.NewTeam(st.workers)
		drvs, err := bindDrivers(nests, team, src, st.opts)
		if err != nil {
			team.Close()
			return attempted, failed, err
		}
		cur := make([]float64, len(nests))
		var steps []float64
		for i, n := range nests {
			drv := drvs[i]
			p0 := drv.Execs()[0].Pulse()
			runs := 0
			cur[i] = timeRuns(func() { n.run(drv); runs++ }, per/time.Duration(len(nests)))
			p1 := drv.Execs()[0].Pulse()
			attempted++
			if cerr := n.check(); cerr != nil {
				failed++
				note("ladder %s: %s: %v", st.metric, n.name, cerr)
			}
			if st.metric == "pulse.polling_x" {
				pollingDeltaMs += cur[i] - prev[i]
				polls += float64(p1.Polls-p0.Polls) / float64(runs)
			}
			if st.metric == "sched.workers_x" {
				steps = append(steps, prev[i]/cur[i])
			} else {
				steps = append(steps, cur[i]/prev[i])
			}
		}
		closeDrivers(drvs)
		team.Close()
		m.set(st.metric, st.unit, geomean(steps))
		prev = cur
	}
	m.set("pulse.poll_ns", "ns", ratio(pollingDeltaMs*1e6, polls))
	return attempted, failed, nil
}

// timeRuns runs fn once untimed, then timed until d has passed (at least
// three times), and returns the median in ms.
func timeRuns(fn func(), d time.Duration) float64 {
	fn()
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || time.Since(start) < d {
		t0 := time.Now()
		fn()
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}
