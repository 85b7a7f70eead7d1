package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open loop.
type arrival struct {
	at     time.Duration // due time, from the start of the phase
	kernel string
	tenant string
}

var tenants = []string{"tenant-a", "tenant-b"}

// poissonSchedule draws an open-loop schedule from seed: exponential gaps at
// rate requests per second for d, kernels and tenants drawn uniformly.
func poissonSchedule(seed int64, rate float64, d time.Duration, kernels []string) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, kernel: kernels[rng.Intn(len(kernels))], tenant: tenants[rng.Intn(len(tenants))]})
	}
}

// reqResult is what one request of the schedule met. Times are from the
// start of the phase.
type reqResult struct {
	sent, done      time.Duration
	skipped         bool // never sent: the probe was abandoned
	status          int
	queuedMs, runMs float64
	transport       error
	wrong           error // the body did not hold the kernel's right answer
	lagMs           float64
}

// latencyMs is the request's latency from its due time; a request that
// failed or was never sent counts as taking the whole deadline, so it
// misses any latency limit.
func (r reqResult) latencyMs(a arrival, deadline time.Duration) float64 {
	if r.failed(a, deadline) {
		return ms(deadline)
	}
	return ms(r.done - a.at)
}

func (r reqResult) failed(a arrival, deadline time.Duration) bool {
	return r.skipped || r.transport != nil || r.wrong != nil || r.status/100 != 2 || r.done-a.at > deadline
}

// loadgen drives hbcserve with an open loop: each request is sent at its
// due time by the first free connection, so a stalled server delays later
// requests and that delay is counted.
type loadgen struct {
	client   *http.Client
	base     string
	conns    int
	deadline time.Duration
	refs     map[string]*oracle // root-value references by kernel
	tr       *tracer
}

func newLoadgen(base string, conns int, refs map[string]*oracle) *loadgen {
	return &loadgen{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		base: base, conns: conns, deadline: time.Second, refs: refs,
	}
}

// runBody is the part of a /run response the benchmark checks.
type runBody struct {
	Kernel   string   `json:"kernel"`
	Tenant   string   `json:"tenant"`
	QueuedMs float64  `json:"queued_ms"`
	RunMs    float64  `json:"run_ms"`
	Value    *float64 `json:"value"`
}

// run plays the schedule and returns one result per arrival. When
// abortOver > 0 it stops sending once more than abortOver requests have
// missed limitMs, which settles a rate-search probe early.
func (g *loadgen) run(sched []arrival, abortOver int, limitMs float64) []reqResult {
	res := make([]reqResult, len(sched))
	var next, over atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if abortOver > 0 && over.Load() > int64(abortOver) {
					res[i].skipped = true
					continue
				}
				a := sched[i]
				idle := time.Since(start) < a.at
				if idle {
					time.Sleep(a.at - time.Since(start))
				}
				r := &res[i]
				r.sent = time.Since(start)
				if idle {
					r.lagMs = ms(r.sent - a.at)
				}
				g.do(a, r)
				r.done = time.Since(start)
				if r.latencyMs(a, g.deadline) > limitMs {
					over.Add(1)
				}
				if g.tr != nil {
					g.traceRequest(a, r, start, lane)
				}
			}
		}(c)
	}
	wg.Wait()
	return res
}

func (g *loadgen) do(a arrival, r *reqResult) {
	req, err := http.NewRequest(http.MethodPost, g.base+"/run/"+a.kernel, nil)
	if err != nil {
		r.transport = err
		return
	}
	req.Header.Set("X-Tenant", a.tenant)
	req.Header.Set("X-Deadline-Ms", strconv.FormatInt(g.deadline.Milliseconds(), 10))
	resp, err := g.client.Do(req)
	if err != nil {
		r.transport = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status = resp.StatusCode
	if err != nil {
		r.transport = err
		return
	}
	if r.status != http.StatusOK {
		return
	}
	var b runBody
	if err := json.Unmarshal(body, &b); err != nil {
		r.wrong = fmt.Errorf("%s: unreadable body: %v", a.kernel, err)
		return
	}
	r.queuedMs, r.runMs = b.QueuedMs, b.RunMs
	switch {
	case b.Kernel != a.kernel || b.Tenant != a.tenant:
		r.wrong = fmt.Errorf("asked %s for %s, answered %s for %s", a.kernel, a.tenant, b.Kernel, b.Tenant)
	case g.refs[a.kernel] != nil:
		var v any
		if b.Value != nil {
			v = *b.Value
		}
		r.wrong = g.refs[a.kernel].checkValue(v)
		if r.wrong != nil {
			r.wrong = fmt.Errorf("%s: %w", a.kernel, r.wrong)
		}
	}
}

// traceRequest records the client span and, as its children, the queue
// wait and run time the server reported. The children's durations are the
// server's; their placement inside the client span is from its start.
func (g *loadgen) traceRequest(a arrival, r *reqResult, start time.Time, lane int) {
	sent, done := start.Add(r.sent), start.Add(r.done)
	id := g.tr.newID()
	g.tr.addWithID(id, "http/"+a.kernel, 0, id, lane+2, sent, done)
	q := time.Duration(r.queuedMs * float64(time.Millisecond))
	run := time.Duration(r.runMs * float64(time.Millisecond))
	g.tr.add("serve.queued", id, id, lane+2, sent, sent.Add(q))
	g.tr.add("serve.run/"+a.kernel, id, id, lane+2, sent.Add(q), sent.Add(q+run))
}

// phase is one played schedule.
type phase struct {
	sched    []arrival
	res      []reqResult
	deadline time.Duration
}

func (p phase) latencies() []float64 {
	out := make([]float64, len(p.res))
	for i, r := range p.res {
		out[i] = r.latencyMs(p.sched[i], p.deadline)
	}
	return out
}

// counts returns how many requests were sent, failed for any reason, and
// carried a wrong answer or met a transport error.
func (p phase) counts() (sent, failed, wrong int) {
	for i, r := range p.res {
		if r.skipped {
			continue
		}
		sent++
		if r.failed(p.sched[i], p.deadline) {
			failed++
		}
		if r.wrong != nil || r.transport != nil {
			wrong++
		}
	}
	return sent, failed, wrong
}

// passes reports whether a probe met the latency limit at its tail with no
// failure and no growing backlog, and the tail it measured.
func (p phase) passes(limitMs float64) (bool, float64) {
	lat := p.latencies()
	t, _ := tail(lat, 99)
	_, failed, _ := p.counts()
	skipped := 0
	for _, r := range p.res {
		if r.skipped {
			skipped++
		}
	}
	// A backlog that grows through the probe shows in its last requests.
	last := lat[len(lat)-max(1, len(lat)/10):]
	return t < limitMs && failed == 0 && skipped == 0 && median(last) < limitMs, t
}

// maxRate searches for the highest offered rate whose probe passes the
// latency limit: doubling (or halving) from start until the outcome
// flips, then bisecting in log space, then interpolating the limit's
// crossing between the last passing and the first failing rate.
func maxRate(g *loadgen, seed int64, kernels []string, start, limitMs float64, probes int, probeDur time.Duration) (rate float64, sent, wrong int) {
	lo, hi := 0.0, math.Inf(1)
	var loTail, hiTail float64
	r := start
	for i := 0; i < probes; i++ {
		// At least a hundred requests a probe, so it has a tail to judge.
		d := max(probeDur, time.Duration(100/r*float64(time.Second)))
		sched := poissonSchedule(seed*1000+int64(i), r, d, kernels)
		n := len(sched)
		allowed := n - rank(n, tailPct(n, 99))
		p := phase{sched: sched, res: g.run(sched, allowed, limitMs), deadline: g.deadline}
		s, _, w := p.counts()
		sent += s
		wrong += w
		ok, t := p.passes(limitMs)
		note("rate probe %d: %.0f req/s, tail %.2f ms, pass=%v", i, r, t, ok)
		if ok {
			lo, loTail = r, t
		} else {
			hi, hiTail = r, math.Min(t, 4*limitMs)
		}
		switch {
		case math.IsInf(hi, 1):
			r *= 2
		case lo == 0:
			r /= 2
		default:
			r = math.Sqrt(lo * hi)
		}
		time.Sleep(100 * time.Millisecond) // let the server idle between probes
	}
	switch {
	case lo == 0:
		return hi / 2, sent, wrong
	case math.IsInf(hi, 1):
		return lo, sent, wrong
	}
	frac := (limitMs - loTail) / (hiTail - loTail)
	return lo + math.Max(0, math.Min(1, frac))*(hi-lo), sent, wrong
}
