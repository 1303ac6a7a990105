// Command dpc-bench is the deterministic engine benchmark and regression
// harness: it runs the evaluation experiments (E1..E10 by default) at a
// fixed seed under two engine configurations —
//
//	baseline: the seed sequential engine (Reference mode: Workers=1, no
//	          distance cache — the implementation this repository shipped
//	          before the multi-core engine)
//	tuned:    the fast engine (Workers=NumCPU by default, memoized
//	          distance oracles, restructured swap/coverage evaluation)
//
// — and writes a JSON artifact with per-experiment wall-clock, speedup,
// and the tuned tables (communication bytes and cost ratios). For every
// experiment whose table carries no timing columns, the harness asserts
// that baseline and tuned produced *identical* tables: same centers, same
// bytes on the wire, same costs. A speedup that changes results is a bug,
// and this is the check that catches it.
//
// Usage:
//
//	dpc-bench                         # E1..E10 full-size -> BENCH_PR2.json
//	dpc-bench -preset quick           # reduced sizes (CI smoke)
//	dpc-bench -exp E1,E4 -out e14.json
//	dpc-bench -seed 7 -workers 4
//
// With -tree the harness measures the aggregation-tree topology instead:
// for a curve of site counts it runs the same instance star and tree
// (internal/tree, default branch 8) and records the coordinator's physical
// inbox bytes under each — the star's inbox grows linearly in s, the
// tree's is bounded by the branching factor — plus the byte-identity of
// the centers, into BENCH_TREE.json (gated by dpc-benchdiff -tree):
//
//	dpc-bench -tree                   # s in {8..256} -> BENCH_TREE.json
//	dpc-bench -tree -preset quick -branch 4
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"dpc/internal/bench"
	"dpc/internal/engine"
	"dpc/internal/metric"
	"dpc/internal/tree"
)

// timingRowExperiments have wall-clock columns inside their tables, so
// their rows legitimately differ between engine runs and are excluded from
// the identity assertion (speedup is still recorded).
var timingRowExperiments = map[string]bool{"E7": true, "E12": true}

// defaultExperiments is the E1..E10 span the PR-2 artifact covers.
const defaultExperiments = "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10"

// experimentResult is one experiment's entry in the JSON artifact.
type experimentResult struct {
	ID            string  `json:"id"`
	Title         string  `json:"title"`
	Claim         string  `json:"claim"`
	BaselineMS    float64 `json:"baseline_ms"`
	TunedMS       float64 `json:"tuned_ms"`
	Speedup       float64 `json:"speedup"`
	RowsCompared  bool    `json:"rows_compared"`
	RowsIdentical bool    `json:"rows_identical"`
	// Index columns (present with -index): the tuned engine re-run with
	// the pivot metric index layered over its oracles. IndexSpeedup is
	// tuned_ms / index_ms — above 1 the index beat the cache-only engine.
	IndexMS      float64    `json:"index_ms,omitempty"`
	IndexSpeedup float64    `json:"index_speedup,omitempty"`
	Header       []string   `json:"header"`
	Rows         [][]string `json:"rows"`
	Notes        []string   `json:"notes,omitempty"`
}

// artifact is the BENCH_PR2.json schema.
type artifact struct {
	Description  string             `json:"description"`
	Preset       string             `json:"preset"`
	Seed         int64              `json:"seed"`
	NumCPU       int                `json:"num_cpu"`
	TunedWorkers int                `json:"tuned_workers"`
	IndexPivots  int                `json:"index_pivots,omitempty"`
	GoVersion    string             `json:"go_version"`
	Experiments  []experimentResult `json:"experiments"`
	Summary      map[string]float64 `json:"summary"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if _, printed := err.(parsedError); !printed {
			fmt.Fprintln(os.Stderr, "dpc-bench:", err)
		}
		os.Exit(1)
	}
}

// parsedError wraps an error the FlagSet already reported to stderr, so
// main does not print it a second time.
type parsedError struct{ error }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpc-bench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_PR2.json", "output JSON path ('-' for stdout)")
	exp := fs.String("exp", defaultExperiments, "comma-separated experiment IDs")
	seed := fs.Int64("seed", 1, "workload seed (the artifact is deterministic given the seed, up to wall-clock)")
	preset := fs.String("preset", "full", "instance sizes: full or quick")
	workers := fs.Int("workers", 0, "tuned-engine worker count (0 = NumCPU)")
	index := fs.Bool("index", false, "also run the tuned engine with the pivot metric index and record index_ms/index_speedup")
	pivots := fs.Int("pivots", 0, "pivot count for -index (0 = metric default)")
	treeMode := fs.Bool("tree", false, "measure the aggregation-tree topology (comm bytes vs site count) instead of the engine experiments")
	branch := fs.Int("branch", tree.DefaultBranch, "with -tree: aggregation-tree branching factor")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed
		}
		return parsedError{err}
	}
	var quick bool
	switch *preset {
	case "full":
	case "quick":
		quick = true
	default:
		return fmt.Errorf("unknown preset %q (want full or quick)", *preset)
	}
	if *treeMode {
		treeOut := *out
		if treeOut == "BENCH_PR2.json" { // -tree writes its own artifact by default
			treeOut = "BENCH_TREE.json"
		}
		return runTree(treeOut, *preset, quick, *seed, *branch, stdout)
	}

	var selected []bench.Experiment
	for _, id := range strings.Split(*exp, ",") {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		selected = append(selected, e)
	}

	art := artifact{
		Description: "Engine benchmark: seed sequential engine (baseline) vs multi-core engine with " +
			"cached distance oracles (tuned). rows_identical asserts the engines returned " +
			"byte-identical tables (same centers, wire bytes, costs).",
		Preset:       *preset,
		Seed:         *seed,
		NumCPU:       runtime.NumCPU(),
		TunedWorkers: effectiveWorkers(*workers),
		GoVersion:    runtime.Version(),
		Summary:      map[string]float64{},
	}
	if *index {
		art.IndexPivots = *pivots
		if art.IndexPivots == 0 {
			art.IndexPivots = metric.DefaultPivots
		}
	}

	for _, e := range selected {
		baseOpts := bench.Options{Seed: *seed, Quick: quick, Options: engine.Options{Reference: true}}
		tunedOpts := bench.Options{Seed: *seed, Quick: quick, Options: engine.Options{Workers: *workers}}

		t0 := time.Now()
		baseTable := e.Run(baseOpts)
		baseMS := float64(time.Since(t0).Microseconds()) / 1000

		t0 = time.Now()
		tunedTable := e.Run(tunedOpts)
		tunedMS := float64(time.Since(t0).Microseconds()) / 1000

		res := experimentResult{
			ID:           e.ID,
			Title:        tunedTable.Title,
			Claim:        tunedTable.Claim,
			BaselineMS:   round2(baseMS),
			TunedMS:      round2(tunedMS),
			Speedup:      round2(baseMS / tunedMS),
			RowsCompared: !timingRowExperiments[e.ID],
			Header:       tunedTable.Header,
			Rows:         tunedTable.Rows,
			Notes:        tunedTable.Notes,
		}
		if res.RowsCompared {
			res.RowsIdentical = tablesEqual(baseTable.Rows, tunedTable.Rows)
			if !res.RowsIdentical {
				return fmt.Errorf("%s: tuned engine diverged from the reference engine\nbaseline:\n%s\ntuned:\n%s",
					e.ID, baseTable.String(), tunedTable.String())
			}
		}
		if *index {
			indexOpts := tunedOpts
			indexOpts.Index, indexOpts.Pivots = true, *pivots
			t0 = time.Now()
			indexTable := e.Run(indexOpts)
			indexMS := float64(time.Since(t0).Microseconds()) / 1000
			res.IndexMS = round2(indexMS)
			res.IndexSpeedup = round2(tunedMS / indexMS)
			// The index prunes with exact lower bounds: its tables must be
			// byte-identical to the cache-only engine's, always — timing
			// experiments included, since their timing rows are excluded by
			// the same rule as the baseline comparison.
			if res.RowsCompared && !tablesEqual(tunedTable.Rows, indexTable.Rows) {
				return fmt.Errorf("%s: indexed engine diverged from the cache-only engine\ncache-only:\n%s\nindexed:\n%s",
					e.ID, tunedTable.String(), indexTable.String())
			}
			art.Summary[e.ID+"_index_speedup"] = res.IndexSpeedup
		}
		art.Experiments = append(art.Experiments, res)
		art.Summary[e.ID+"_speedup"] = res.Speedup
		if *index {
			fmt.Fprintf(stdout, "%-4s baseline %8.1fms  tuned %8.1fms  index %8.1fms  speedup %.2fx  index_speedup %.2fx  rows_identical=%v\n",
				e.ID, res.BaselineMS, res.TunedMS, res.IndexMS, res.Speedup, res.IndexSpeedup, res.RowsIdentical || !res.RowsCompared)
		} else {
			fmt.Fprintf(stdout, "%-4s baseline %8.1fms  tuned %8.1fms  speedup %.2fx  rows_identical=%v\n",
				e.ID, res.BaselineMS, res.TunedMS, res.Speedup, res.RowsIdentical || !res.RowsCompared)
		}
	}
	art.Summary["geomean_speedup"] = round2(geomean(art.Experiments))

	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", *out, len(art.Experiments))
	return nil
}

func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.NumCPU()
}

func tablesEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func geomean(rs []experimentResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += math.Log(r.Speedup)
	}
	return math.Exp(sum / float64(len(rs)))
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
