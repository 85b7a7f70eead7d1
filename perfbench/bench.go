package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hbc"
	"hbc/gen"
	"hbc/internal/analysis"
	"hbc/internal/frontend"
)

const (
	// serveRate is serve-mix's fixed offered load in requests per second,
	// about a tenth of what two shards sustain on the mix on a 2-vCPU host.
	// The host's speed swings by up to 2× within seconds, and with two
	// connections the queue behind an escape request amplifies each swing
	// into the latency tail; at this rate requests rarely queue, so the
	// end-to-end latency is run time plus HTTP, and queueing shows in the
	// per-layer serve.max_rate_rps and loadgen.req_ms_p99.
	serveRate = 50.0
	// searchStart is the first rate the serve.max_rate_rps search offers.
	searchStart = 300.0
	// latencyLimitMs caps the tail latency at which serve.max_rate_rps still
	// counts a rate as met: about 4× escape's unloaded latency (12 ms), the
	// slowest kernel of the mix.
	latencyLimitMs = 50.0
	// rateProbes is how many offered rates the serve.max_rate_rps search
	// tries.
	rateProbes = 5
)

// libEndToEnd measures a library workload in episodes: each sets the
// workload up afresh, runs rounds for its share of the measurement and
// closes it. Pooling the episodes' samples averages over what one set-up
// settles into (adaptive chunk sizes, heartbeat phase), and gives the
// set-up time several samples.
func libEndToEnd(episodes int, setup func() (*boundLeg, error), cfg config, m metrics, t *tally) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	all := libRun{serial: map[string][]float64{}, hbc: map[string][]float64{}}
	var setups []float64
	for e := 0; e < episodes; e++ {
		t0 := time.Now()
		leg, err := setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r := runRounds(leg, rng, cfg.seconds/time.Duration(episodes), nil)
		leg.close()
		runtime.GC()
		debug.FreeOSMemory()
		for name, xs := range r.serial {
			all.serial[name] = append(all.serial[name], xs...)
			all.hbc[name] = append(all.hbc[name], r.hbc[name]...)
		}
		all.rounds = append(all.rounds, r.rounds...)
		all.attempted += r.attempted
		all.failed += r.failed
	}
	t.add(all.attempted, all.failed, all.failed)
	all.endToEnd(m)
	m.set("setup_s", "s", median(setups))
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	m.set("rss_peak_mb", "MB", rss)
	return nil
}

// libLedger is the traced part of a library workload: its leg untraced for
// half of 35% of the run and traced for the other half, reporting the
// traced half's per-layer metrics and the tracing overhead on nest_ms_p50,
// then the Fig. 7 ladder over its nests for 30% of the run.
func libLedger(cfg config, leg *boundLeg, nests []libNest, tr *tracer, m metrics, t *tally) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	d := cfg.seconds * 35 / 100
	u := runRounds(leg, rng, d/2, nil)
	r := runRounds(leg, rng, d/2, tr)
	leg.close()
	t.add(u.attempted+r.attempted, u.failed+r.failed, u.failed+r.failed)
	r.perLayer(m)
	r.tails(m)
	m.set("trace.overhead_pct", "pct", 100*(r.nestP50()/u.nestP50()-1))
	a, f, err := ladder(nests, cfg.seconds*3/10, m)
	t.add(a, f, f)
	return err
}

func runTPAL(cfg config, m metrics, t *tally) error {
	if !cfg.trace {
		return libEndToEnd(4, func() (*boundLeg, error) {
			leg, _, err := tpalSetup(nil)
			return leg, err
		}, cfg, m, t)
	}
	ks, err := loadKernels(filepath.Join(cfg.root, "kernels"))
	if err != nil {
		return err
	}
	tr := newTracer()
	if err := frontendLedger(ks, m, tr); err != nil {
		return err
	}
	leg, nests, err := tpalSetup(tr)
	if err != nil {
		return err
	}
	if err := libLedger(cfg, leg, nests, tr, m, t); err != nil {
		return err
	}
	if err := genSide(cfg, ks, cfg.seconds/10, tr, m, t); err != nil {
		return err
	}
	if err := serveSide(cfg, ks, cfg.seconds*15/100, tr, m, t); err != nil {
		return err
	}
	return writeTrace(cfg, "tpal-2w", tr, m)
}

func runGen(cfg config, m metrics, t *tally) error {
	ks, err := loadKernels(filepath.Join(cfg.root, "kernels"))
	if err != nil {
		return err
	}
	oracles, err := genOracles(ks, cfg.seed)
	if err != nil {
		return err
	}
	if !cfg.trace {
		return libEndToEnd(10, func() (*boundLeg, error) {
			leg, _, err := genSetup(ks, oracles, cfg.seed, nil)
			return leg, err
		}, cfg, m, t)
	}
	tr := newTracer()
	if err := frontendLedger(ks, m, tr); err != nil {
		return err
	}
	leg, gks, err := genSetup(ks, oracles, cfg.seed, tr)
	if err != nil {
		return err
	}
	if err := libLedger(cfg, leg, genLadderNests(gks, oracles), tr, m, t); err != nil {
		return err
	}
	if err := tpalSide(cfg, cfg.seconds/10, tr, m, t); err != nil {
		return err
	}
	if err := serveSide(cfg, ks, cfg.seconds*15/100, tr, m, t); err != nil {
		return err
	}
	return writeTrace(cfg, "gen-1w", tr, m)
}

// genSide runs gen-1w briefly for the per-nest times of its kernels.
func genSide(cfg config, ks []kernelSource, d time.Duration, tr *tracer, m metrics, t *tally) error {
	oracles, err := genOracles(ks, cfg.seed)
	if err != nil {
		return err
	}
	leg, _, err := genSetup(ks, oracles, cfg.seed, tr)
	if err != nil {
		return err
	}
	defer leg.close()
	r := runRounds(leg, rand.New(rand.NewSource(cfg.seed)), d, tr)
	t.add(r.attempted, r.failed, r.failed)
	r.runMs(m)
	return nil
}

// tpalSide runs tpal-2w briefly for the per-nest times of its nests.
func tpalSide(cfg config, d time.Duration, tr *tracer, m metrics, t *tally) error {
	leg, _, err := tpalSetup(tr)
	if err != nil {
		return err
	}
	defer leg.close()
	r := runRounds(leg, rand.New(rand.NewSource(cfg.seed)), d, tr)
	t.add(r.attempted, r.failed, r.failed)
	r.runMs(m)
	return nil
}

// frontendLedger times the front half of the pipeline over the five
// kernels — parse, facts, vet, lowering, core compilation — as the median
// of several passes.
func frontendLedger(ks []kernelSource, m metrics, tr *tracer) error {
	const passes = 9
	names := []string{"frontend.parse_ms", "analysis.facts_ms", "analysis.vet_ms", "frontend.compile_ms", "core.compile_ms"}
	totals := make([][]float64, len(names))
	for p := 0; p < passes; p++ {
		sums := make([]float64, len(names))
		for _, k := range ks {
			var parsed *frontend.Kernel
			var lowered *frontend.Compiled
			steps := []func() error{
				func() (err error) { parsed, err = frontend.ParseFile(k.path, string(k.src)); return err },
				func() error { analysis.BuildFacts(k.path, parsed); return nil },
				func() error {
					if analysis.HasErrors(analysis.Vet(k.path, parsed)) {
						return fmt.Errorf("%s: vet errors", k.name)
					}
					return nil
				},
				func() (err error) { lowered, err = frontend.Compile(parsed); return err },
				func() error { _, err := hbc.Compile(lowered.Nest, hbc.Config{}); return err },
			}
			for i, step := range steps {
				t0 := time.Now()
				if err := step(); err != nil {
					return err
				}
				t1 := time.Now()
				sums[i] += ms(t1.Sub(t0))
				tr.add("setup/"+names[i]+"/"+k.name, 0, 0, 0, t0, t1)
			}
		}
		for i := range names {
			totals[i] = append(totals[i], sums[i])
		}
	}
	for i, name := range names {
		m.set(name, "ms", median(totals[i]))
	}
	return nil
}

// writeTrace writes the spans as a Chrome trace, and the per-layer metrics
// beside them.
func writeTrace(cfg config, workload string, tr *tracer, m metrics) error {
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	if err := tr.write(base + ".trace.json"); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", b, 0o644); err != nil {
		return err
	}
	note("wrote %d spans to %s.trace.json", tr.len(), base)
	return nil
}

// --- serve-mix ---------------------------------------------------------------

// serveStack is a staged kernel directory, the reference values of the
// kernels with a root reduction, and a running server.
type serveStack struct {
	dir  string
	refs map[string]*oracle
	srv  *server
}

// startStack stages the kernels, computes the references with the
// interpreted serial elision, and starts the server reps times, keeping the
// last; it returns the median start-to-ready time in seconds.
func startStack(cfg config, ks []kernelSource, reps int, tr *tracer) (*serveStack, float64, error) {
	dir, err := stageKernels(ks, cfg.out)
	if err != nil {
		return nil, 0, err
	}
	st := &serveStack{dir: dir, refs: map[string]*oracle{}}
	for _, k := range ks {
		o, err := interpretedOracle(k, 0, false)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		if _, ok := toFloat(o.value); ok {
			st.refs[k.name] = o
		}
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, ready, err := startServer(cfg.hbcserve, dir, cfg.out)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		tr.add("setup/server-start", 0, 0, 0, t0, t0.Add(ready))
		setups = append(setups, ready.Seconds())
		if i < reps-1 {
			s.kill()
			continue
		}
		st.srv = s
	}
	return st, median(setups), nil
}

// close drains the server and removes the staged kernels.
func (st *serveStack) close() error {
	defer os.RemoveAll(st.dir)
	return st.srv.stop()
}

// playPhase warms the server for a short schedule, then plays a fixed-rate
// schedule of d drawn from seed in consecutive parts, calling pause (if
// non-nil) before each part.
func playPhase(g *loadgen, seed int64, d time.Duration, parts int, pause func(), names []string, t *tally) phase {
	// At least a hundred requests, so every kernel of the mix is sampled.
	d = max(d, time.Duration(100/serveRate*float64(time.Second)))
	warm := poissonSchedule(seed^0x5eed, serveRate, d/10, names)
	wp := phase{sched: warm, res: g.run(warm, 0, latencyLimitMs), deadline: g.deadline}
	_, _, wrong := wp.counts()
	t.add(0, wrong, wrong)
	all := poissonSchedule(seed, serveRate, d, names)
	p := phase{deadline: g.deadline}
	for k := 0; k < parts; k++ {
		from, to := d*time.Duration(k)/time.Duration(parts), d*time.Duration(k+1)/time.Duration(parts)
		var part []arrival
		for _, a := range all {
			if a.at >= from && a.at < to {
				a.at -= from
				part = append(part, a)
			}
		}
		if pause != nil {
			pause()
		}
		p.sched = append(p.sched, part...)
		p.res = append(p.res, g.run(part, 0, latencyLimitMs)...)
	}
	sent, failed, wrong := p.counts()
	t.add(sent, failed, wrong)
	for i, r := range p.res {
		if r.wrong != nil || r.transport != nil {
			note("request %d (%s): %v%v", i, p.sched[i].kernel, r.wrong, r.transport)
		}
	}
	return p
}

// kernelLatencies groups request latencies, from due time, by kernel.
func (p phase) kernelLatencies() map[string][]float64 {
	out := map[string][]float64{}
	for i, r := range p.res {
		k := p.sched[i].kernel
		out[k] = append(out[k], r.latencyMs(p.sched[i], p.deadline))
	}
	return out
}

// kernelRunMs groups the server-reported run times of successful requests
// by kernel.
func (p phase) kernelRunMs() map[string][]float64 {
	out := map[string][]float64{}
	for i, r := range p.res {
		if !r.failed(p.sched[i], p.deadline) {
			out[p.sched[i].kernel] = append(out[p.sched[i].kernel], r.runMs)
		}
	}
	return out
}

func runServe(cfg config, m metrics, t *tally) error {
	ks, err := loadKernels(filepath.Join(cfg.root, "kernels"))
	if err != nil {
		return err
	}
	names := gen.Kernels()
	if cfg.trace {
		return serveLedger(cfg, ks, names, m, t)
	}
	st, setupS, err := startStack(cfg, ks, 5, nil)
	if err != nil {
		return err
	}
	m.set("setup_s", "s", setupS)
	// The serial elisions are timed in bursts between the parts of the
	// phase, so they sample the same stretch of the host's speed as the
	// served runs they are compared with.
	serial := map[string][]float64{}
	burst := serialTimer(names, serial)
	g := newLoadgen(st.srv.base, runtime.NumCPU(), st.refs)
	p := playPhase(g, cfg.seed, cfg.seconds*9/10, 12, burst, names, t)
	sent, failed, _ := p.counts()
	m.set("ok_share", "fraction", 1-float64(failed)/float64(sent))
	var speed, run50, lat50 []float64
	for k, runs := range p.kernelRunMs() {
		med, sm := median(runs), median(serial[k])
		note("kernel %s: n=%d run p50=%.4fms serial=%.4fms", k, len(runs), med, sm)
		speed = append(speed, sm/med)
		run50 = append(run50, med)
	}
	// Request latencies are summarised per kernel and then across kernels
	// by geomean, as nest times are: a percentile of the pooled mix lands
	// on whichever kernel holds that rank (above p80, always escape).
	for _, lat := range p.kernelLatencies() {
		lat50 = append(lat50, median(lat))
	}
	m.set("speedup_geomean", "x", geomean(speed))
	m.set("nest_ms_p50", "ms", geomean(run50))
	m.set("req_ms_p50", "ms", geomean(lat50))
	rss, rssErr := st.srv.peakRSSMB()
	if err := st.close(); err != nil {
		return err
	}
	if rssErr != nil {
		return rssErr
	}
	m.set("rss_peak_mb", "MB", rss)
	return nil
}

// serialTimer returns a burst that times each generated kernel's serial
// elision a few times on its default inputs — the inputs the server runs —
// appending ms samples by kernel.
func serialTimer(names []string, samples map[string][]float64) func() {
	type kernel struct {
		gk  *gen.Kernel
		env gen.Env
	}
	ks := map[string]kernel{}
	for _, n := range names {
		gk, _ := gen.Lookup(n)
		ks[n] = kernel{gk, gk.NewEnv()}
	}
	return func() {
		for _, n := range names {
			k := ks[n]
			k.gk.RunSerial(k.env)
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				k.gk.RunSerial(k.env)
				samples[n] = append(samples[n], ms(time.Since(t0)))
			}
		}
	}
}

// servePerLayer reports the serving layer's split of a traced phase.
func servePerLayer(p phase, m metrics) {
	var queued, run, httpMs []float64
	shed, expired, sent := 0, 0, 0
	lag := 0.0
	for i, r := range p.res {
		a := p.sched[i]
		if r.skipped {
			continue
		}
		sent++
		lag = max(lag, r.lagMs)
		switch {
		case r.status == 429:
			shed++
		case r.status == 504 || r.done-a.at > p.deadline:
			expired++
		}
		if !r.failed(a, p.deadline) {
			queued = append(queued, r.queuedMs)
			run = append(run, r.runMs)
			httpMs = append(httpMs, ms(r.done-r.sent)-r.queuedMs-r.runMs)
		}
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"serve.queued_ms", queued}, {"serve.run_ms", run}, {"serve.http_ms", httpMs}} {
		m.set(s.name+"_p50", "ms", median(s.xs))
		v, _ := tail(s.xs, 99)
		m.set(s.name+"_p99", "ms", v)
	}
	for k, runs := range p.kernelRunMs() {
		m.set("serve.run_ms_p50."+k, "ms", median(runs))
	}
	m.set("serve.shed_share", "fraction", float64(shed)/float64(sent))
	m.set("serve.expired_share", "fraction", float64(expired)/float64(sent))
	m.set("loadgen.lag_ms_max", "ms", lag)
}

// serveTails reports the tails of a fixed-rate phase: each kernel's p90
// server run time and p90 latency (geomeans over kernels), and the p99
// latency of the whole mix.
func serveTails(p phase, m metrics) {
	var run90, lat90 []float64
	for _, runs := range p.kernelRunMs() {
		t, _ := tail(runs, 90)
		run90 = append(run90, t)
	}
	for _, lat := range p.kernelLatencies() {
		t, _ := tail(lat, 90)
		lat90 = append(lat90, t)
	}
	m.set("core.nest_ms_p90", "ms", geomean(run90))
	m.set("loadgen.req_ms_p90", "ms", geomean(lat90))
	t, pct := tail(p.latencies(), 99)
	note("requests: n=%d, loadgen.req_ms_p99 at p%.1f", len(p.res), pct)
	m.set("loadgen.req_ms_p99", "ms", t)
}

// serveSide plays a short traced fixed-rate phase and a short rate search
// for the serving layer's per-layer metrics.
func serveSide(cfg config, ks []kernelSource, d time.Duration, tr *tracer, m metrics, t *tally) error {
	st, _, err := startStack(cfg, ks, 1, tr)
	if err != nil {
		return err
	}
	g := newLoadgen(st.srv.base, runtime.NumCPU(), st.refs)
	g.tr = tr
	servePerLayer(playPhase(g, cfg.seed, d/2, 1, nil, gen.Kernels(), t), m)
	g.tr = nil
	searchRate(g, cfg.seed, 3, d/2, m, t)
	return st.close()
}

// searchRate runs the max_rate_rps search with probes probes over d.
func searchRate(g *loadgen, seed int64, probes int, d time.Duration, m metrics, t *tally) {
	rate, sent, wrong := maxRate(g, seed, gen.Kernels(), searchStart, latencyLimitMs, probes, d/time.Duration(probes))
	t.add(sent, wrong, wrong)
	m.set("serve.max_rate_rps", "req/s", rate)
}

func serveLedger(cfg config, ks []kernelSource, names []string, m metrics, t *tally) error {
	tr := newTracer()
	if err := frontendLedger(ks, m, tr); err != nil {
		return err
	}
	st, _, err := startStack(cfg, ks, 1, tr)
	if err != nil {
		return err
	}
	g := newLoadgen(st.srv.base, runtime.NumCPU(), st.refs)
	u := playPhase(g, cfg.seed, cfg.seconds*15/100, 1, nil, names, t)
	g.tr = tr
	p := playPhase(g, cfg.seed, cfg.seconds*15/100, 1, nil, names, t)
	servePerLayer(p, m)
	serveTails(p, m)
	m.set("trace.overhead_pct", "pct", 100*(median(p.latencies())/median(u.latencies())-1))
	g.tr = nil
	searchRate(g, cfg.seed, rateProbes, cfg.seconds/5, m, t)
	if err := st.close(); err != nil {
		return err
	}
	// The shards run the generated kernels on 1-worker teams; the runtime
	// counters come from the same kernels run in-process the same way.
	oracles, err := genOracles(ks, cfg.seed)
	if err != nil {
		return err
	}
	leg, gks, err := genSetup(ks, oracles, cfg.seed, tr)
	if err != nil {
		return err
	}
	r := runRounds(leg, rand.New(rand.NewSource(cfg.seed)), cfg.seconds/10, tr)
	leg.close()
	t.add(r.attempted, r.failed, r.failed)
	r.perLayer(m)
	a, f, err := ladder(genLadderNests(gks, oracles), cfg.seconds*15/100, m)
	t.add(a, f, f)
	if err != nil {
		return err
	}
	if err := tpalSide(cfg, cfg.seconds/10, tr, m, t); err != nil {
		return err
	}
	return writeTrace(cfg, "serve-mix", tr, m)
}
