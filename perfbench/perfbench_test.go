package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSelfRun runs every workload briefly, untraced and traced, and checks
// that each emits exactly the metrics BENCHMARK.json names, with their
// units, that every output checked out, and that traced runs write spans.
func TestSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hbcserve and runs every workload")
	}
	out := t.TempDir()
	bin := filepath.Join(out, "hbcserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hbcserve")
	build.Dir = ".."
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hbcserve: %v\n%s", err, b)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range []string{"tpal-2w", "gen-1w", "serve-mix"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{root: root, out: out, hbcserve: bin, seed: 7, seconds: 500 * time.Millisecond, trace: traced}
				res, err := measure(runners[name], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					for n, u := range want {
						if got[n] != u {
							t.Errorf("metric %s: unit %q, want %q", n, got[n], u)
						}
					}
					for n := range got {
						if _, ok := want[n]; !ok {
							t.Errorf("unexpected metric %s", n)
						}
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, fmt.Sprintf("%s-seed7.trace.json", name))); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestCorruptOutputCaught damages one kernel's output after each run and
// expects the oracle to count the failures.
func TestCorruptOutputCaught(t *testing.T) {
	ks, err := loadKernels("../kernels")
	if err != nil {
		t.Fatal(err)
	}
	oracles, err := genOracles(ks, 3)
	if err != nil {
		t.Fatal(err)
	}
	leg, gks, err := genSetup(ks, oracles, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer leg.close()
	for i, g := range gks {
		if g.src.name == "spmv" {
			out, _ := g.env.FloatArray("out")
			check := leg.nests[i].check
			leg.nests[i].check = func(v any) error {
				out[len(out)/2] += 1
				return check(v)
			}
		}
	}
	r := runRounds(leg, rand.New(rand.NewSource(1)), 0, nil)
	if r.failed != r.nrounds || r.attempted != r.nrounds*len(gks) {
		t.Fatalf("failed %d of %d runs over %d rounds; want one failure per round", r.failed, r.attempted, r.nrounds)
	}
	m := metrics{}
	r.endToEnd(m)
	if share := 1 - m["ok_share"].Value; share <= 0 {
		t.Errorf("failed share %g, want > 0", share)
	}
}

// TestWrongServedValueCaught serves a wrong dotnorm value and a mislabelled
// kernel, and expects the load generator to count both as wrong.
func TestWrongServedValueCaught(t *testing.T) {
	ks, err := loadKernels("../kernels")
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]*oracle{}
	for _, k := range ks {
		if k.name == "dotnorm" {
			if refs[k.name], err = interpretedOracle(k, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kernel := filepath.Base(r.URL.Path)
		if kernel == "stencil" {
			kernel = "spmv"
		}
		fmt.Fprintf(w, `{"kernel":%q,"tenant":%q,"queued_ms":0,"run_ms":1,"value":1}`, kernel, r.Header.Get("X-Tenant"))
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 2, refs)
	sched := []arrival{
		{at: 0, kernel: "dotnorm", tenant: "tenant-a"},
		{at: time.Millisecond, kernel: "stencil", tenant: "tenant-b"},
		{at: 2 * time.Millisecond, kernel: "escape", tenant: "tenant-a"},
	}
	p := phase{sched: sched, res: g.run(sched, 0, latencyLimitMs), deadline: g.deadline}
	sent, failed, wrong := p.counts()
	if sent != 3 || failed != 2 || wrong != 2 {
		t.Errorf("sent %d failed %d wrong %d, want 3 2 2", sent, failed, wrong)
	}
}

// TestScheduleFromSeed checks that a seed fixes the request schedule and
// kernel sequence, and that another seed changes them.
func TestScheduleFromSeed(t *testing.T) {
	kernels := []string{"dotnorm", "escape", "powersum", "spmv", "stencil"}
	a := poissonSchedule(11, serveRate, 2*time.Second, kernels)
	b := poissonSchedule(11, serveRate, 2*time.Second, kernels)
	c := poissonSchedule(12, serveRate, 2*time.Second, kernels)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if n := float64(len(a)) / 2; n < serveRate/2 || n > serveRate*2 {
		t.Errorf("%.0f arrivals/s, want about %.0f", n, serveRate)
	}
}

// TestTailPercentile checks that the reported tail is the highest
// percentile, at most the nominal one, with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		nominal float64
		want    float64
	}{
		{1000, 99, 99},
		{5000, 99, 99},
		{500, 99, 98},
		{120, 90, 90},
		{100, 90, 90},
		{40, 90, 75},
		{15, 90, 50},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so sorting matters
		}
		v, pct := tail(xs, tc.nominal)
		if pct != tc.want {
			t.Errorf("n=%d nominal=%g: percentile %g, want %g", tc.n, tc.nominal, pct, tc.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want at least %d", tc.n, beyond, pct, minBeyond)
		}
		if pct < tc.nominal && pct > 50 && tc.n-rank(tc.n, pct+0.1) >= minBeyond {
			t.Errorf("n=%d: p%g is not the highest percentile with %d beyond", tc.n, pct, minBeyond)
		}
	}
}
