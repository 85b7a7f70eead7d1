package main

import (
	"fmt"
	"math/rand"
	"time"

	"hbc/internal/core"
	"hbc/internal/pulse"
	"hbc/internal/sched"
	"hbc/internal/workloads"
)

// libNest is one nest of a library workload, independent of the team and
// configuration it runs under: the Fig. 7 ladder binds it many ways.
type libNest struct {
	name   string
	serial func() // the serial elision, on inputs of its own
	bind   func(d *workloads.Driver) error
	run    func(d *workloads.Driver)
	check  func() error // checks the outputs of the latest heartbeat run
	// hint seeds Adaptive Chunking's first chunk (0 = start at 1), as
	// hbc.Config.Facts does for generated kernels.
	hint int64
}

// coreCounts are a nest's cumulative core.RunStats counters.
type coreCounts struct{ promotions, forked, leftovers int64 }

// schedCounts are a team's cumulative scheduler counters.
type schedCounts struct{ steals, stealNanos, parks, poolHits, poolMisses int64 }

func fromSched(c sched.Counters) schedCounts {
	return schedCounts{
		steals: c.Steals, stealNanos: c.StealNanos, parks: c.Parks,
		poolHits:   c.TaskPoolHits + c.LatchPoolHits,
		poolMisses: c.TaskPoolMisses + c.LatchPoolMisses,
	}
}

// nestCase is one nest bound for the timed loop.
type nestCase struct {
	name   string
	serial func()
	run    func() any
	check  func(v any) error
	core   func() coreCounts
	pulse  func() pulse.Stats
}

// boundLeg is a library workload bound to one team and ready to run rounds.
type boundLeg struct {
	nests []nestCase
	sched func() schedCounts
	close func()
}

// libRun is what a closed loop of rounds measured. Times are in ms.
type libRun struct {
	serial, hbc       map[string][]float64
	rounds            []float64
	attempted, failed int
	// Counter deltas summed over the measured rounds; read only when traced.
	nrounds                    int
	core                       coreCounts
	polls, detected, generated int64
	sched                      schedCounts
	lagMean                    time.Duration
}

// runRounds runs one untimed warm-up round, then rounds until d has passed
// (at least minRounds). Each round visits every nest once, in an order drawn
// from rng: the timed serial elision, the timed heartbeat run, then the
// untimed check of that run. Counters are read only when tr is non-nil, so
// untraced rounds time the program alone.
func runRounds(leg *boundLeg, rng *rand.Rand, d time.Duration, tr *tracer) libRun {
	const minRounds = 3
	r := libRun{serial: map[string][]float64{}, hbc: map[string][]float64{}}
	round := func(timed bool) {
		group := tr.newID()
		roundStart := time.Now()
		roundMs := 0.0
		for _, i := range rng.Perm(len(leg.nests)) {
			n := &leg.nests[i]
			t0 := time.Now()
			n.serial()
			t1 := time.Now()
			var c0 coreCounts
			var p0 pulse.Stats
			if tr != nil {
				c0, p0 = n.core(), n.pulse()
			}
			t2 := time.Now()
			v := n.run()
			t3 := time.Now()
			if tr != nil && timed {
				c1, p1 := n.core(), n.pulse()
				r.core.promotions += c1.promotions - c0.promotions
				r.core.forked += c1.forked - c0.forked
				r.core.leftovers += c1.leftovers - c0.leftovers
				r.polls += p1.Polls - p0.Polls
				r.detected += p1.Detected - p0.Detected
				r.generated += p1.Generated - p0.Generated
				r.lagMean = p1.LagMean
			}
			err := n.check(v)
			t4 := time.Now()
			tr.add("serial/"+n.name, group, group, 1, t0, t1)
			tr.add("core.run/"+n.name, group, group, 1, t2, t3)
			tr.add("verify/"+n.name, group, group, 1, t3, t4)
			if !timed {
				continue
			}
			r.attempted++
			if err != nil {
				r.failed++
				note("%s: %v", n.name, err)
			}
			r.serial[n.name] = append(r.serial[n.name], ms(t1.Sub(t0)))
			hbcMs := ms(t3.Sub(t2))
			r.hbc[n.name] = append(r.hbc[n.name], hbcMs)
			roundMs += hbcMs
		}
		tr.addWithID(group, "round", 0, group, 1, roundStart, time.Now())
		if timed {
			r.rounds = append(r.rounds, roundMs)
		}
	}
	round(false)
	var s0 schedCounts
	if tr != nil {
		s0 = leg.sched()
	}
	start := time.Now()
	for len(r.rounds) < minRounds || time.Since(start) < d {
		round(true)
	}
	r.nrounds = len(r.rounds)
	if tr != nil {
		s1 := leg.sched()
		r.sched = schedCounts{
			steals: s1.steals - s0.steals, stealNanos: s1.stealNanos - s0.stealNanos,
			parks: s1.parks - s0.parks, poolHits: s1.poolHits - s0.poolHits,
			poolMisses: s1.poolMisses - s0.poolMisses,
		}
	}
	return r
}

// endToEnd reports the library end-to-end metrics of a measured loop.
func (r libRun) endToEnd(m metrics) {
	var speed []float64
	for name, h := range r.hbc {
		med := median(h)
		speed = append(speed, median(r.serial[name])/med)
		note("nest %s: n=%d p50=%.4fms serial=%.4fms", name, len(h), med, median(r.serial[name]))
	}
	m.set("speedup_geomean", "x", geomean(speed))
	m.set("nest_ms_p50", "ms", r.nestP50())
	m.set("req_ms_p50", "ms", median(r.rounds))
	m.set("ok_share", "fraction", 1-float64(r.failed)/float64(r.attempted))
}

// nestP50 is the geomean over nests of each nest's median heartbeat time.
func (r libRun) nestP50() float64 {
	var p50 []float64
	for _, h := range r.hbc {
		p50 = append(p50, median(h))
	}
	return geomean(p50)
}

// tails reports the tails of a measured loop: each nest's p90 heartbeat
// time (geomean over nests), and the closed-loop caller's round latency.
func (r libRun) tails(m metrics) {
	var p90 []float64
	for _, h := range r.hbc {
		t, _ := tail(h, 90)
		p90 = append(p90, t)
	}
	m.set("core.nest_ms_p90", "ms", geomean(p90))
	t90, pct90 := tail(r.rounds, 90)
	t99, pct99 := tail(r.rounds, 99)
	note("rounds: n=%d, req_ms tails at p%.1f and p%.1f", len(r.rounds), pct90, pct99)
	m.set("loadgen.req_ms_p90", "ms", t90)
	m.set("loadgen.req_ms_p99", "ms", t99)
}

// runMs reports each nest's median heartbeat run time.
func (r libRun) runMs(m metrics) {
	for name, h := range r.hbc {
		m.set("core.run_ms."+name, "ms", median(h))
	}
}

// perLayer reports the per-nest times and the counters of a traced loop.
func (r libRun) perLayer(m metrics) {
	r.runMs(m)
	n := float64(r.nrounds)
	m.set("core.promotions_per_round", "count", float64(r.core.promotions)/n)
	m.set("core.tasks_forked_per_round", "count", float64(r.core.forked)/n)
	m.set("core.leftover_runs_per_round", "count", float64(r.core.leftovers)/n)
	m.set("pulse.polls_per_round", "count", float64(r.polls)/n)
	m.set("pulse.beats_expected_per_round", "count", float64(r.generated)/n)
	m.set("pulse.beats_detected_per_round", "count", float64(r.detected)/n)
	m.set("pulse.delivery_ratio", "fraction", ratio(float64(r.detected), float64(r.generated)))
	m.set("pulse.lag_mean_us", "us", float64(r.lagMean.Nanoseconds())/1e3)
	m.set("sched.steals_per_round", "count", float64(r.sched.steals)/n)
	m.set("sched.steal_ns_mean", "ns", ratio(float64(r.sched.stealNanos), float64(r.sched.steals)))
	m.set("sched.parks_per_round", "count", float64(r.sched.parks)/n)
	m.set("sched.pool_miss_share", "fraction",
		ratio(float64(r.sched.poolMisses), float64(r.sched.poolHits+r.sched.poolMisses)))
	serial := 0.0
	for _, s := range r.serial {
		serial += median(s)
	}
	m.set("serial.round_ms", "ms", serial)
}

// bindDrivers binds every nest on one team, one driver (and so one
// heartbeat source) per nest, as a workload's HBC programs run in the
// harness.
func bindDrivers(nests []libNest, team *sched.Team, src func() pulse.Source, opts core.Options) ([]*workloads.Driver, error) {
	drvs := make([]*workloads.Driver, 0, len(nests))
	for _, n := range nests {
		o := opts
		o.InitialChunk = n.hint
		d := workloads.NewDriver(team, src(), core.DefaultHeartbeat, o)
		if err := n.bind(d); err != nil {
			d.Close()
			closeDrivers(drvs)
			return nil, fmt.Errorf("binding %s: %w", n.name, err)
		}
		drvs = append(drvs, d)
	}
	return drvs, nil
}

func closeDrivers(drvs []*workloads.Driver) {
	for _, d := range drvs {
		d.Close()
	}
}

// driverCase wraps a nest bound on a driver for the timed loop.
func driverCase(n libNest, d *workloads.Driver) nestCase {
	return nestCase{
		name:   n.name,
		serial: n.serial,
		run:    func() any { n.run(d); return nil },
		check:  func(any) error { return n.check() },
		core: func() coreCounts {
			var c coreCounts
			for _, x := range d.Execs() {
				st := x.Stats()
				c.promotions += st.Promotions()
				c.forked += st.TasksForked()
				c.leftovers += st.LeftoverRuns()
			}
			return c
		},
		// The driver's nests share one source, so any exec reports it.
		pulse: func() pulse.Stats { return d.Execs()[0].Pulse() },
	}
}

// tpalNests prepares the eight Fig. 6 TPAL workloads at scale 1: one
// instance runs heartbeat nests and is verified, a second runs the serial
// elision, so serial outputs can never stand in for a heartbeat run's.
func tpalNests() ([]libNest, error) {
	var nests []libNest
	for _, name := range workloads.TPALSet() {
		w, err := workloads.New(name)
		if err != nil {
			return nil, err
		}
		s, _ := workloads.New(name)
		w.Prepare(1)
		s.Prepare(1)
		nests = append(nests, libNest{
			name: name, serial: s.Serial, bind: w.BindHBC, run: w.RunHBC, check: w.Verify,
		})
	}
	return nests, nil
}

// tpalSetup is one set-up of tpal-2w: input preparation, compilation and
// binding of every nest on a started 2-worker team.
func tpalSetup(tr *tracer) (*boundLeg, []libNest, error) {
	t0 := time.Now()
	nests, err := tpalNests()
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	team := sched.NewTeam(2)
	drvs, err := bindDrivers(nests, team, func() pulse.Source { return pulse.NewTimer() }, core.Options{})
	if err != nil {
		team.Close()
		return nil, nil, err
	}
	t2 := time.Now()
	tr.add("setup/prepare", 0, 0, 0, t0, t1)
	tr.add("setup/team+compile", 0, 0, 0, t1, t2)
	leg := &boundLeg{
		sched: func() schedCounts { return fromSched(team.Counters()) },
		close: func() { closeDrivers(drvs); team.Close() },
	}
	for i, n := range nests {
		leg.nests = append(leg.nests, driverCase(n, drvs[i]))
	}
	return leg, nests, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
