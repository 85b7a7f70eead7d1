package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hbc"
	"hbc/gen"
	_ "hbc/gen/kernels" // registers the five generated kernels
	"hbc/internal/analysis"
	"hbc/internal/frontend"
	"hbc/internal/workloads"
)

// floatTol is the documented tolerance for float outputs: heartbeat
// promotions reassociate reductions, so floats agree to 1e-9 (absolute or
// relative), while int outputs must match exactly.
const floatTol = 1e-9

// arrays is the accessor surface frontend.Env and gen.Env share.
type arrays interface {
	IntArray(name string) ([]int64, bool)
	FloatArray(name string) ([]float64, bool)
}

// kernelSource is one top-level .hbk kernel, parsed.
type kernelSource struct {
	name, path string
	src        []byte
	ast        *frontend.Kernel
	facts      *analysis.Facts
}

// loadKernels parses the five top-level kernels in dir (not kernels/bad).
func loadKernels(dir string) ([]kernelSource, error) {
	var ks []kernelSource
	for _, name := range gen.Kernels() {
		path := filepath.Join(dir, name+".hbk")
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading kernel: %w", err)
		}
		k, err := frontend.ParseFile(path, string(src))
		if err != nil {
			return nil, err
		}
		ks = append(ks, kernelSource{name: name, path: path, src: src, ast: k, facts: analysis.BuildFacts(path, k)})
	}
	return ks, nil
}

// inputArrays lists the float arrays a kernel reads and never writes:
// declared float arrays and matrix values. Integer arrays are matrix
// structure and stay as the kernel's generator built them.
func inputArrays(k kernelSource) []string {
	written := map[string]bool{}
	for _, w := range k.facts.Effects.Writes {
		written[w] = true
	}
	var names []string
	for _, d := range k.ast.Decls {
		switch d := d.(type) {
		case *frontend.ArrayDecl:
			if d.Float && !written[d.Name] {
				names = append(names, d.Name)
			}
		case *frontend.MatrixDecl:
			names = append(names, d.Name+".val")
		}
	}
	return names
}

// seedInputs overwrites a kernel's float inputs with values drawn from the
// seed, identically for any environment holding the kernel's arrays.
func seedInputs(k kernelSource, env arrays, seed int64) error {
	for _, name := range inputArrays(k) {
		a, ok := env.FloatArray(name)
		if !ok {
			return fmt.Errorf("%s: no float array %q", k.name, name)
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		for i := range a {
			a[i] = 0.5 + rng.Float64()
		}
	}
	return nil
}

// oracle is a kernel's reference output from the interpreted serial
// elision (frontend compile + RunSeq), never from the generated backend.
type oracle struct {
	value  any
	floats map[string][]float64
	ints   map[string][]int64
}

func interpretedOracle(k kernelSource, seed int64, seeded bool) (*oracle, error) {
	c, err := frontend.Compile(k.ast)
	if err != nil {
		return nil, err
	}
	if seeded {
		if err := seedInputs(k, c.Env, seed); err != nil {
			return nil, err
		}
	}
	prog, err := hbc.Compile(c.Nest, hbc.Config{})
	if err != nil {
		return nil, err
	}
	o := &oracle{value: prog.RunSeq(c.Env), floats: map[string][]float64{}, ints: map[string][]int64{}}
	for _, name := range k.facts.Effects.Writes {
		if a, ok := c.Env.FloatArray(name); ok {
			o.floats[name] = append([]float64(nil), a...)
		} else if a, ok := c.Env.IntArray(name); ok {
			o.ints[name] = append([]int64(nil), a...)
		} else {
			return nil, fmt.Errorf("%s: output %q not in environment", k.name, name)
		}
	}
	return o, nil
}

// check compares a run's root value and every output array with the oracle.
func (o *oracle) check(kernel string, value any, env arrays) error {
	if err := o.checkValue(value); err != nil {
		return fmt.Errorf("%s: %w", kernel, err)
	}
	for name, want := range o.floats {
		got, _ := env.FloatArray(name)
		if len(got) != len(want) {
			return fmt.Errorf("%s: %s has %d elements, want %d", kernel, name, len(got), len(want))
		}
		for i := range want {
			if !near(got[i], want[i]) {
				return fmt.Errorf("%s: %s[%d] = %g, want %g", kernel, name, i, got[i], want[i])
			}
		}
	}
	for name, want := range o.ints {
		got, _ := env.IntArray(name)
		if len(got) != len(want) {
			return fmt.Errorf("%s: %s has %d elements, want %d", kernel, name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s: %s[%d] = %d, want %d", kernel, name, i, got[i], want[i])
			}
		}
	}
	return nil
}

func (o *oracle) checkValue(value any) error {
	want, ok := toFloat(o.value)
	if !ok {
		return nil
	}
	got, ok := toFloat(value)
	if !ok || !near(got, want) {
		return fmt.Errorf("value %v, want %g", value, want)
	}
	return nil
}

func near(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= floatTol || d <= floatTol*math.Abs(want)
}

// toFloat reads a root reduction value: runs return the accumulator by
// pointer, JSON bodies carry it as a number.
func toFloat(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case *float64:
		return *v, v != nil
	case int64:
		return float64(v), true
	case *int64:
		return float64(*v), v != nil
	}
	return 0, false
}

// genKernel is one generated kernel bound for gen-1w.
type genKernel struct {
	src            kernelSource
	gk             *gen.Kernel
	env, serialEnv gen.Env
	facts          *analysis.Facts
}

// genInputs builds each kernel's environments through its generated
// constructor and seeds their inputs: one environment for heartbeat runs,
// one for the serial elision.
func genInputs(ks []kernelSource, seed int64) ([]genKernel, error) {
	var out []genKernel
	for _, k := range ks {
		gk, ok := gen.Lookup(k.name)
		if !ok {
			return nil, fmt.Errorf("no generated kernel %q", k.name)
		}
		facts, err := gk.Facts()
		if err != nil {
			return nil, err
		}
		g := genKernel{src: k, gk: gk, env: gk.NewEnv(), serialEnv: gk.NewEnv(), facts: facts}
		for _, e := range []gen.Env{g.env, g.serialEnv} {
			if err := seedInputs(k, e, seed); err != nil {
				return nil, err
			}
		}
		out = append(out, g)
	}
	return out, nil
}

// genSetup is one set-up of gen-1w through the public API: inputs, then
// gen.Lookup → hbc.Compile(gk.Nest(env)) → Team.Load on a 1-worker team.
func genSetup(ks []kernelSource, oracles map[string]*oracle, seed int64, tr *tracer) (*boundLeg, []genKernel, error) {
	t0 := time.Now()
	gks, err := genInputs(ks, seed)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	team := hbc.NewTeam(hbc.Workers(1))
	leg := &boundLeg{
		sched: func() schedCounts {
			s := team.SchedStats()
			return schedCounts{
				steals: s.Steals, stealNanos: s.StealNanos, parks: s.Parks,
				poolHits:   s.TaskPoolHits + s.LatchPoolHits,
				poolMisses: s.TaskPoolMisses + s.LatchPoolMisses,
			}
		},
	}
	var runners []*hbc.Runner
	leg.close = func() {
		for _, r := range runners {
			r.Close()
		}
		team.Close()
	}
	for _, g := range gks {
		prog, err := hbc.Compile(g.gk.Nest(g.env), hbc.Config{Facts: g.facts})
		if err != nil {
			leg.close()
			return nil, nil, fmt.Errorf("compiling %s: %w", g.src.name, err)
		}
		r := team.Load(prog, g.env)
		runners = append(runners, r)
		g, o := g, oracles[g.src.name]
		leg.nests = append(leg.nests, nestCase{
			name:   g.src.name,
			serial: func() { g.gk.RunSerial(g.serialEnv) },
			run:    r.Run,
			check:  func(v any) error { return o.check(g.src.name, v, g.env) },
			core: func() coreCounts {
				st := r.Stats()
				return coreCounts{st.Promotions(), st.TasksForked(), st.LeftoverRuns()}
			},
			pulse: r.PulseStats,
		})
	}
	t2 := time.Now()
	tr.add("setup/inputs", 0, 0, 0, t0, t1)
	tr.add("setup/team+compile", 0, 0, 0, t1, t2)
	return leg, gks, nil
}

// genLadderNests exposes the bound generated kernels to the Fig. 7 ladder,
// which compiles them through core directly under each step's options.
func genLadderNests(gks []genKernel, oracles map[string]*oracle) []libNest {
	var nests []libNest
	for _, g := range gks {
		g, o := g, oracles[g.src.name]
		var last any
		nests = append(nests, libNest{
			name:   g.src.name,
			serial: func() { g.gk.RunSerial(g.serialEnv) },
			bind: func(d *workloads.Driver) error {
				return d.Load(g.src.name, g.gk.Nest(g.env), g.env)
			},
			run:   func(d *workloads.Driver) { last = d.Run(g.src.name) },
			check: func() error { return o.check(g.src.name, last, g.env) },
			hint:  g.facts.LeafChunkHint(),
		})
	}
	return nests
}

// genOracles computes the interpreted reference of every kernel on the
// seeded inputs.
func genOracles(ks []kernelSource, seed int64) (map[string]*oracle, error) {
	out := map[string]*oracle{}
	for _, k := range ks {
		o, err := interpretedOracle(k, seed, true)
		if err != nil {
			return nil, err
		}
		out[k.name] = o
	}
	return out, nil
}
