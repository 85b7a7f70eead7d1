// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output, and prints its metrics as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every layer call, writes them as a Chrome trace
// under -out, and prints the per-layer metrics. Workloads, metrics and the
// reasons for them are in README.md. Run it through run.sh, which builds
// it and hbcserve from the checkout:
//
//	bash perfbench/run.sh --workload gen-1w --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

var stderr io.Writer = os.Stderr

// note writes one diagnostic line to standard error.
func note(format string, args ...any) {
	fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	root     string // checkout root: kernels/ lives here
	out      string // scratch and trace output directory
	hbcserve string // built server binary
	seed     int64
	seconds  time.Duration
	trace    bool
}

// tally counts checked operations: failed covers every kind of failure,
// wrong only outputs that did not match their reference.
type tally struct{ attempted, failed, wrong int }

func (t *tally) add(attempted, failed, wrong int) {
	t.attempted += attempted
	t.failed += failed
	t.wrong += wrong
}

var runners = map[string]func(cfg config, m metrics, t *tally) error{
	"tpal-2w":   runTPAL,
	"gen-1w":    runGen,
	"serve-mix": runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: tpal-2w, gen-1w or serve-mix")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and request schedule")
		seconds  = flag.Float64("seconds", 35, "measurement time")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		out      = flag.String("out", ".bench_build/perfbench", "directory for scratch files and traces")
		hbcserve = flag.String("hbcserve", ".bench_build/perfbench/hbcserve", "hbcserve binary")
	)
	flag.Parse()
	run, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	// The server runs in the output directory, so every path is made
	// absolute first.
	for _, p := range []struct {
		dst *string
		src string
	}{{&cfg.root, *root}, {&cfg.out, *out}, {&cfg.hbcserve, *hbcserve}} {
		abs, err := filepath.Abs(p.src)
		if err != nil {
			note("%v", err)
			os.Exit(2)
		}
		*p.dst = abs
	}
	res, err := measure(run, cfg)
	if err != nil {
		note("%v", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		note("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func measure(run func(config, metrics, *tally) error, cfg config) (result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, err
	}
	m := metrics{}
	var t tally
	if err := run(cfg, m, &t); err != nil {
		return result{}, err
	}
	if t.attempted == 0 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
