// Command svcbench is the path-query service benchmark. It runs one named
// workload against an in-process pathsvc.Server over loopback TCP on wire
// v2, verifies a seeded sample of the answers, and prints one JSON result
// as the last line of standard output.
//
//	svcbench --workload hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time, CPU time
// per request in a closed loop, failure and degradation shares, peak
// memory) and prints the open-loop latency at a fixed reference rate.
// With --trace 1 it makes a separate traced run and reports the per-layer
// ledger instead. Client and server share one process and
// traffic crosses the loopback interface, not a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one invocation prints last.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) json() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = val{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// bench is one invocation's fixed inputs.
type bench struct {
	w       *workload
	g       *hhc.Graph
	seed    uint64
	seconds time.Duration
	pool    []pathsvc.NodePair
	out     io.Writer
	phases  []*phase // every load phase run, in order, for the report
}

func (b *bench) stream(phaseID uint64) *stream {
	return newStream(b.w, b.g, b.seed, phaseID, b.pool)
}

func (b *bench) sampler(phaseID uint64) sampler {
	return sampler{key: mix(b.seed^0x73616d70, phaseID), max: 64}
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot, cold or mixed")
	seed := fs.Uint64("seed", 1, "seed of the generated request stream")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "svcbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 2
	}
	g, err := hhc.New(w.m)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	b := &bench{w: w, g: g, seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: stdout}
	if w.pool > 0 {
		b.pool = newPool(g, b.seed, w.pool)
	}
	b.printf("svcbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, b.seed, *seconds, *trace)
	b.printf("why: %s\n", w.why)
	var res *result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	b.report(res)
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// verifyPhases checks every phase's sampled answers and folds wrong
// answers into its tally; it reports whether all were right.
func (b *bench) verifyPhases() bool {
	ok := true
	for _, p := range b.phases {
		if len(p.samples) == 0 {
			continue
		}
		wrong, first := verify(b.g, b.stream(p.id), p.samples)
		p.tally.kinds[kindWrong] += int64(wrong)
		if wrong > 0 {
			ok = false
			b.printf("WRONG ANSWER in phase %s (%d of %d sampled): %v\n", p.name, wrong, len(p.samples), first)
		}
	}
	return ok
}

// totals sums the tallies of every phase of the run.
func (b *bench) totals() tally {
	var t tally
	for _, p := range b.phases {
		t.add(&p.tally)
	}
	return t
}

// report prints the provenance record, the per-phase counts and every
// metric with its unit, ahead of the JSON line.
func (b *bench) report(res *result) {
	prov, err := json.Marshal(provenance(b))
	if err == nil {
		b.printf("provenance: %s\n", prov)
	}
	b.printf("%-10s %9s %9s %7s %9s %8s  %s\n", "phase", "sent", "ok", "failed", "verified", "elapsed", "failures by kind")
	for _, p := range b.phases {
		kinds := ""
		for k := kindOverload; k < numKinds; k++ {
			if n := p.tally.kinds[k]; n > 0 {
				kinds += fmt.Sprintf(" %s=%d", kindNames[k], n)
			}
		}
		b.printf("%-10s %9d %9d %7d %9d %7.2fs %s\n", p.name, p.tally.sent, p.tally.kinds[kindOK],
			p.tally.failed(), len(p.samples), p.elapsed.Seconds(), kinds)
	}
	for _, m := range res.metrics {
		b.printf("%-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
}
