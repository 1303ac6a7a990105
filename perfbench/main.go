// Command perfbench is the repository's benchmark: one command that
// generates a workload's inputs from a seed, drives the clustering system
// through its public surfaces, checks every answer, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload median-big-shards --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics through client.Local.Do (or
// client.Remote against a serve.Server); --trace 1 is the traced run,
// which rebuilds the same path from the layer functions with a span
// around each call and reports the per-layer metrics. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root (the working directory); outputs go under root/.bench_build/perfbench
	setups   int    // how many times set-up is timed (setup_s is the median)
	size     size
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (o options) outDir() string { return filepath.Join(o.root, ".bench_build", "perfbench") }

// runBudget bounds a whole run, set-up and checks included.
const runBudget = 160 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{root: ".", setups: 9, size: full}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input of the run derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o.trace = *traceFlag == 1
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.emit(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is everything one run measured; its Result is the printed line.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
	Notes    []string `json:"notes"`
	Errors   []string `json:"errors,omitempty"`
	// Samples holds the raw samples behind the timing figures, by name.
	Samples map[string][]float64 `json:"samples,omitempty"`

	rec *recorder // traced runs: the spans, written beside the report
}

// emit saves the report and prints it: the host fingerprint and notes,
// then the result object as the last line of stdout.
func (r *report) emit(o options, stdout, stderr io.Writer) error {
	host, _ := json.Marshal(r.Host)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%t host=%s\n", o.workload, o.seed, o.trace, host)
	for _, n := range r.Notes {
		fmt.Fprintln(stdout, "perfbench:", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	if err := r.save(o); err != nil {
		return err
	}
	line, err := json.Marshal(r.Result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// save writes the report (and the spans of a traced run) under the output
// directory.
func (r *report) save(o options) error {
	dir := filepath.Join(o.outDir(), "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), raw, 0o644); err != nil {
		return err
	}
	if r.rec != nil {
		return r.rec.write(filepath.Join(dir, base+".spans.json"))
	}
	return nil
}

// tally accumulates operations and failures with their reasons.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(attempted, failed int, errs []error) {
	t.attempted += attempted
	t.failed += failed
	for _, e := range errs {
		if len(t.errs) < 50 {
			t.errs = append(t.errs, e.Error())
		}
	}
}

// runWorkload runs one workload and assembles its report.
func runWorkload(ctx context.Context, o options) (*report, error) {
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: fingerprint(o.root)}
	book := newDigestBook()
	var t tally
	var vals map[string]float64
	var err error
	if o.workload == wlServerMix {
		vals, err = runMix(ctx, o, rep, book, &t)
	} else {
		vals, err = runLocal(ctx, o, rep, book, &t)
	}
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s-seed%d-size%d-%s", o.workload, o.seed, o.size, rep.Host.Source)
	cross := crossRunCheck(filepath.Join(o.outDir(), "digests"), key, book)
	t.add(len(book.first), len(cross), cross)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		vals["peak_rss_mb"] = peakRSSMB()
	}
	rep.Result = result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   fill(defs, vals),
	}
	rep.Errors = t.errs
	return rep, nil
}

// durSeconds converts durations to seconds.
func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timedSetups runs setup n times, each from a freshly collected heap, and
// returns the last result and the median duration in seconds; release is
// called with every other result.
func timedSetups[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < n-1 && release != nil {
			release(v)
		}
		last = v
	}
	return last, median(ds), nil
}

// tailNote states which percentile a tail figure is, over how many samples.
func tailNote(name string, xs []float64) string {
	p, _ := tail(xs)
	return fmt.Sprintf("%s is p%g of %d samples", name, p, len(xs))
}
