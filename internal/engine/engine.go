// Package engine holds the one set of solver-engine knobs shared by every
// layer of the stack: the root dpc.Config, kmedian.Options and kcenter.Opt
// embed (or alias) engine.Options, and client.Request / serve.JobSpec carry
// it inside a Spec next to the k-median algorithm choice. Every run config
// holds exactly one copy, so "how many workers, which caches, which index"
// is said in one vocabulary from the CLI flags down to the per-site
// solvers.
//
// The knobs never change results — every configuration returns centers
// bit-identical to the Reference engine — they only move wall-clock and
// memory. That invariant is what lets the serving layer pick engine settings
// per deployment without re-validating outputs.
package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Options are the consolidated engine knobs. The zero value is the default
// fast engine: one worker per CPU, memoized distance caches on, no pivot
// index.
type Options struct {
	// Workers bounds per-solve goroutines (0 = one per CPU); results are
	// bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// NoCache disables the memoized distance oracles (a measurement knob;
	// results never change).
	NoCache bool `json:"no_cache,omitempty"`
	// Reference runs the seed sequential algorithms — the baseline half of
	// every engine comparison. Implies Workers=1, NoCache and no index.
	Reference bool `json:"reference,omitempty"`
	// Index enables the pivot-based metric index: triangle-inequality lower
	// bounds prune candidate scans, with results still bit-identical (the
	// index falls back to full scans when its metric self-check fails).
	Index bool `json:"index,omitempty"`
	// Pivots is the index anchor count (0 = default, currently 16).
	Pivots int `json:"pivots,omitempty"`
}

// Normalize resolves implied settings: the Reference engine is the seed
// sequential code path, so it forces Workers=1 and disables caches and the
// index. Idempotent.
func (o Options) Normalize() Options {
	if o.Reference {
		o.Workers = 1
		o.NoCache = true
		o.Index = false
	}
	return o
}

// Spec is the k-median algorithm choice plus Options, with wire/CLI
// ergonomics: it unmarshals from either the legacy JSON string form ("jv" —
// just the algorithm) or the full object form
// ({"algo":"jv","index":true,"pivots":16}), and it implements flag.Value so
// one -engine flag accepts "jv" or "jv,index,workers=4,pivots=16".
type Spec struct {
	// Algo selects the k-median algorithm: "" or "auto" (default),
	// "localsearch", or "jv". Non-median solvers ignore it.
	Algo string `json:"algo,omitempty"`
	Options
}

// IsZero reports whether every knob is at its default.
func (s Spec) IsZero() bool { return s == Spec{} }

// MarshalJSON emits the compact string form when only Algo is set (the wire
// shape every pre-index client and journal record used), and the object form
// otherwise.
func (s Spec) MarshalJSON() ([]byte, error) {
	if s.Options == (Options{}) {
		return json.Marshal(s.Algo)
	}
	// Alias strips Spec's methods so the object form marshals plainly.
	type alias Spec
	return json.Marshal(alias(s))
}

// UnmarshalJSON accepts both wire shapes.
func (s *Spec) UnmarshalJSON(b []byte) error {
	t := strings.TrimSpace(string(b))
	if t == "null" {
		return nil
	}
	if strings.HasPrefix(t, "\"") {
		var algo string
		if err := json.Unmarshal(b, &algo); err != nil {
			return fmt.Errorf("engine: bad string spec %s: %w", t, err)
		}
		*s = Spec{Algo: algo}
		return nil
	}
	type alias Spec
	var a alias
	if err := json.Unmarshal(b, &a); err != nil {
		return fmt.Errorf("engine: bad spec object: %w", err)
	}
	*s = Spec(a)
	return nil
}

// String implements flag.Value, rendering the comma token form Set parses.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.Algo != "" {
		parts = append(parts, s.Algo)
	}
	if s.Workers != 0 {
		parts = append(parts, "workers="+strconv.Itoa(s.Workers))
	}
	if s.NoCache {
		parts = append(parts, "nocache")
	}
	if s.Reference {
		parts = append(parts, "reference")
	}
	if s.Index {
		parts = append(parts, "index")
	}
	if s.Pivots != 0 {
		parts = append(parts, "pivots="+strconv.Itoa(s.Pivots))
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value: a comma-separated token list where a bare
// algorithm name ("auto", "localsearch", "jv") selects Algo, bare "index" /
// "nocache" / "reference" flip the booleans, and "workers=N" / "pivots=N"
// set the counts.
func (s *Spec) Set(v string) error {
	out := Spec{}
	for _, tok := range strings.Split(v, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if key, val, ok := strings.Cut(tok, "="); ok {
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("engine: %s: %w", tok, err)
			}
			switch key {
			case "workers":
				out.Workers = n
			case "pivots":
				out.Pivots = n
			default:
				return fmt.Errorf("engine: unknown setting %q (want %s)", key, strings.Join(specKeys, " | "))
			}
			continue
		}
		switch tok {
		case "auto", "localsearch", "jv":
			out.Algo = tok
		case "index":
			out.Index = true
		case "nocache", "no-cache", "no_cache":
			out.NoCache = true
		case "reference":
			out.Reference = true
		default:
			return fmt.Errorf("engine: unknown token %q (want %s)", tok, strings.Join(specKeys, " | "))
		}
	}
	*s = out
	return nil
}

var specKeys = func() []string {
	ks := []string{"auto", "localsearch", "jv", "index", "nocache", "reference", "workers=N", "pivots=N"}
	sort.Strings(ks)
	return ks
}()
