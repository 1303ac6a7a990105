package bench

import (
	"encoding/hex"
	"encoding/json"
	"testing"

	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/kmedian"
	"dpc/internal/serve"
	"dpc/internal/uncertain"
)

// TestEngineKnobsReachSolvers sets every engine knob on each run-config
// surface and checks that the options the solvers finally see are the
// input's Normalize() — a setting dropped or rewritten on the way fails
// here. It also pins the v3 handshake bytes and the job API JSON of the
// same configurations, so the single-block refactor of the engine knobs
// stays wire-identical.
func TestEngineKnobsReachSolvers(t *testing.T) {
	jobSpec := func(o engine.Options) serve.JobSpec {
		return serve.JobSpec{Dataset: "d", K: 5, T: 10, Seed: 3, Engine: engine.Spec{Algo: "jv", Options: o}}
	}
	// decoded is the site-side view of a point config: the handshake
	// re-applies defaults, so its LocalOpts are what the site solver runs.
	decoded := func(t *testing.T, cfg core.Config) core.Config {
		t.Helper()
		out, err := core.DecodeConfig(core.EncodeConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if out.Options != out.LocalOpts.Options {
			t.Fatalf("config block %+v differs from the solver's %+v", out.Options, out.LocalOpts.Options)
		}
		return out
	}
	surfaces := []struct {
		name string
		eff  func(t *testing.T, o engine.Options) engine.Options
	}{
		{"JobSpec.CoreConfig", func(t *testing.T, o engine.Options) engine.Options {
			cfg, err := jobSpec(o).CoreConfig()
			if err != nil {
				t.Fatal(err)
			}
			return decoded(t, cfg).LocalOpts.Options
		}},
		{"JobSpec.UncertainConfig", func(t *testing.T, o engine.Options) engine.Options {
			spec := jobSpec(o)
			spec.Objective = "u-median"
			cfg, _, err := spec.UncertainConfig()
			if err != nil {
				t.Fatal(err)
			}
			return cfg.LocalOpts.Options
		}},
		{"JobSpec.CenterGConfig", func(t *testing.T, o engine.Options) engine.Options {
			spec := jobSpec(o)
			spec.Objective = "u-centerg"
			cfg, err := spec.CenterGConfig()
			if err != nil {
				t.Fatal(err)
			}
			return cfg.LocalOpts.Options
		}},
		{"bench core", func(t *testing.T, o engine.Options) engine.Options {
			return decoded(t, Options{Options: o}.coreCfg(core.Config{K: 5, T: 10})).LocalOpts.Options
		}},
		{"bench uncertain", func(t *testing.T, o engine.Options) engine.Options {
			return Options{Options: o}.uncCfg(uncertain.Config{K: 5, T: 10}).LocalOpts.Options
		}},
		{"bench centerg", func(t *testing.T, o engine.Options) engine.Options {
			return Options{Options: o}.cgCfg(uncertain.CenterGConfig{K: 5, T: 10}).LocalOpts.Options
		}},
		{"bench central", func(t *testing.T, o engine.Options) engine.Options {
			cfg := central.Config{K: 5, T: 10, Opts: Options{Options: o}.solverOpts(kmedian.Options{Seed: 3})}
			return cfg.Opts.Options
		}},
		{"core wire round trip", func(t *testing.T, o engine.Options) engine.Options {
			return decoded(t, core.Config{K: 5, T: 10, Options: o}).LocalOpts.Options
		}},
	}
	// Golden bytes recorded from the encoder before the flat knob aliases
	// were removed.
	const prefix = "0305000000000000000a000000000000000000000000000000f03f00000000000000000040000000000000d03f0000000000000040"
	cases := []struct {
		name             string
		in               engine.Options
		jobWire, cfgWire string
		jobJSON          string
	}{
		{
			name:    "fast",
			in:      engine.Options{Workers: 3, NoCache: true, Index: true, Pivots: 7},
			jobWire: prefix + "02030000000000000000000000000000000000000000000000000000000000000003000000000000000100010700000000000000",
			cfgWire: prefix + "00000000000000000000000000000000000000000000000000000000000000000003000000000000000100010700000000000000",
			jobJSON: `{"dataset":"d","k":5,"t":10,"seed":3,"engine":{"algo":"jv","workers":3,"no_cache":true,"index":true,"pivots":7},"topology":"star"}`,
		},
		{
			name:    "reference",
			in:      engine.Options{Workers: 3, NoCache: true, Index: true, Pivots: 7, Reference: true},
			jobWire: prefix + "02030000000000000000000000000000000000000000000000000000000000000001000000000000000101000700000000000000",
			cfgWire: prefix + "00000000000000000000000000000000000000000000000000000000000000000001000000000000000101000700000000000000",
			jobJSON: `{"dataset":"d","k":5,"t":10,"seed":3,"engine":{"algo":"jv","workers":3,"no_cache":true,"reference":true,"index":true,"pivots":7},"topology":"star"}`,
		},
	}
	for _, tc := range cases {
		want := tc.in.Normalize()
		for _, s := range surfaces {
			if got := s.eff(t, tc.in); got != want {
				t.Errorf("%s/%s: solver options %+v, want %+v", tc.name, s.name, got, want)
			}
		}
		spec := jobSpec(tc.in)
		cfg, err := spec.CoreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(core.EncodeConfig(cfg)); got != tc.jobWire {
			t.Errorf("%s: job config wire\n got %s\nwant %s", tc.name, got, tc.jobWire)
		}
		if got := hex.EncodeToString(core.EncodeConfig(core.Config{K: 5, T: 10, Options: tc.in})); got != tc.cfgWire {
			t.Errorf("%s: core config wire\n got %s\nwant %s", tc.name, got, tc.cfgWire)
		}
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(js) != tc.jobJSON {
			t.Errorf("%s: job JSON\n got %s\nwant %s", tc.name, js, tc.jobJSON)
		}
	}
}
