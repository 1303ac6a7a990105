// Command dpc-coordinator is the coordinator daemon of a real distributed
// deployment: it listens for s dpc-site processes, ships them the run
// configuration in the transport handshake, drives Algorithm 1/2 over the
// framed TCP wire protocol, and writes the chosen centers as CSV.
//
// The per-site solves are seeded deterministically from -seed + site id,
// so a TCP deployment reproduces the equivalent in-process loopback run
// (same centers, same payload-byte accounting; frame headers are excluded
// from the accounting by construction).
//
// Usage:
//
//	dpc-coordinator -listen 127.0.0.1:9009 -sites 4 -k 5 -t 100 -out centers.csv
//	# then, in four other terminals / machines:
//	dpc-site -connect 127.0.0.1:9009 -site 0 -in part0.csv
//	dpc-site -connect 127.0.0.1:9009 -site 1 -in part1.csv
//	...
//
// With -topology tree,branch=N the processes dialing in are not the leaf
// sites but the top tier of an aggregation tree of dpc-site -aggregate
// daemons (ids 0..d-1 where d is the last entry of the bottom-up tier plan
// — see internal/tree.Tiers); the leaves dial those aggregators instead.
// Centers are byte-identical to the star; -report additionally shows what
// physically crossed each tree level.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/serve"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9009", "address to listen on for sites")
		sites     = flag.Int("sites", 2, "number of sites that will dial in")
		k         = flag.Int("k", 3, "number of centers")
		t         = flag.Int("t", 0, "outlier budget (points that may be ignored)")
		objective = flag.String("objective", "median", "median | means | center")
		variant   = flag.String("variant", "2round", "2round | 1round | noship")
		eps       = flag.Float64("eps", 1, "coordinator bicriteria slack")
		seed      = flag.Int64("seed", 1, "engine seed (site i uses seed + i*const)")
		polish    = flag.Bool("lloyd", false, "Lloyd-polish the final centers (means only)")
		outPath   = flag.String("out", "-", "output CSV of centers ('-' = stdout)")
		report    = flag.Bool("report", false, "print the communication report to stderr")
		topo      tree.Spec
	)
	flag.Var(&topo, "topology", "coordinator fan-in: star | tree | tree,branch=N (tree accepts dpc-site -aggregate daemons)")
	flag.Parse()

	// The job API's translation, so the handshake config is the one every
	// other surface builds from the same parameters.
	cfg, err := serve.JobSpec{
		K: *k, T: *t, Objective: *objective, Variant: *variant, Eps: *eps,
		Seed: *seed, LloydPolish: *polish,
	}.CoreConfig()
	if err != nil {
		fatal(err)
	}

	// Under a tree topology the dialers are the top aggregator tier, not
	// the leaves; the tier plan is the same deterministic one the launch
	// script derives from tree.Tiers.
	direct := *sites
	if topo.Enabled() {
		if tiers := tree.Tiers(*sites, topo.BranchOrDefault()); len(tiers) > 0 {
			direct = tiers[len(tiers)-1]
		}
	}
	l, err := transport.Listen(*listen, direct)
	if err != nil {
		fatal(err)
	}
	defer l.Close()
	what := "site(s)"
	if direct != *sites {
		what = fmt.Sprintf("aggregator(s) for %d site(s)", *sites)
	}
	fmt.Fprintf(os.Stderr, "dpc-coordinator: listening on %s, waiting for %d %s\n", l.Addr(), direct, what)
	var tr transport.Transport
	coord, err := l.Accept(direct, core.EncodeConfig(cfg))
	if err != nil {
		fatal(err)
	}
	tr = coord
	if direct != *sites {
		root, err := tree.NewRootOver(coord, *sites, topo.BranchOrDefault())
		if err != nil {
			coord.Close()
			fatal(err)
		}
		tr = root
	}
	defer tr.Close()
	fmt.Fprintf(os.Stderr, "dpc-coordinator: all %d %s connected, running %s/%s\n", direct, what, cfg.Objective, cfg.Variant)

	res, err := core.RunOverCtx(context.Background(), tr, cfg)
	if err != nil {
		fatal(err)
	}
	if err := tr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dpc-coordinator: close: %v\n", err)
	}

	out, err := openOut(*outPath)
	if err != nil {
		fatal(err)
	}
	if err := dataio.WritePointsCSV(out, res.Centers); err != nil {
		fatal(err)
	}
	out.Close()

	if *report {
		fmt.Fprintf(os.Stderr, "sites: %d  centers: %d  ignorable: %.0f\n",
			res.Report.Sites, len(res.Centers), res.OutlierBudget)
		fmt.Fprintf(os.Stderr, "rounds: %d  up: %d B  down: %d B\n",
			res.Report.Rounds, res.Report.UpBytes, res.Report.DownBytes)
		fmt.Fprintf(os.Stderr, "site budgets t_i: %v\n", res.SiteBudgets)
		if ts := res.Report.Tree; ts != nil {
			fmt.Fprintf(os.Stderr, "tree (branch %d): root inbox %d B (star would be %d B)\n",
				ts.Branch, ts.RootUpBytes(), res.Report.UpBytes)
			for i, lv := range ts.Levels {
				fmt.Fprintf(os.Stderr, "  level %d: down %d B  up %d B\n", i, lv.Down, lv.Up)
			}
		}
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func openOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpc-coordinator:", err)
	os.Exit(1)
}
