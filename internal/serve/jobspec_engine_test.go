package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"dpc/internal/engine"
)

// The engine object is a job's only engine knob. Old clients and journal
// records may still carry the retired top-level "workers" and "no_cache"
// keys; decoding ignores them (results are identical either way), so the
// job runs with exactly its engine object's normalized options.
func TestJobSpecIgnoresLegacyFlatKnobs(t *testing.T) {
	cases := []struct {
		body string
		want engine.Options
	}{
		{`{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"workers":2}}`, engine.Options{Workers: 2}},
		{`{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"algo":"jv"}}`, engine.Options{}},
		{`{"dataset":"d","k":2,"t":1,"no_cache":true,"engine":"localsearch"}`, engine.Options{}},
		{`{"dataset":"d","k":2,"t":1,"engine":{"no_cache":true}}`, engine.Options{NoCache: true}},
		{`{"dataset":"d","k":2,"t":1,"workers":8,"engine":{"reference":true,"index":true}}`,
			engine.Options{Reference: true, Workers: 1, NoCache: true}},
	}
	for _, tc := range cases {
		var spec JobSpec
		if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := spec.EngineOptions(); got != tc.want {
			t.Errorf("%s: EngineOptions() = %+v, want %+v", tc.body, got, tc.want)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		top := strings.SplitN(string(wire), `"engine"`, 2)[0]
		if strings.Contains(top, `"workers"`) || strings.Contains(top, `"no_cache"`) {
			t.Errorf("%s: re-marshaled spec %s still carries a top-level knob", tc.body, wire)
		}
	}
}

// A spec must survive the wire round trip: re-marshaling a JobSpec and
// decoding it again (the journal replay path) yields the same engine
// options, even when the original body carried the retired flat keys.
func TestJobSpecMergeRoundTripStable(t *testing.T) {
	var spec JobSpec
	body := `{"dataset":"d","k":2,"t":1,"workers":8,"no_cache":true,"engine":{"algo":"jv","workers":2,"index":true,"pivots":9}}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	first := spec.EngineOptions()
	if want := (engine.Options{Workers: 2, Index: true, Pivots: 9}); first != want {
		t.Fatalf("EngineOptions() = %+v, want %+v", first, want)
	}

	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var replayed JobSpec
	if err := json.Unmarshal(wire, &replayed); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if replayed.Engine != spec.Engine || replayed.EngineOptions() != first {
		t.Fatalf("engine drifted across the wire: %+v then %+v", spec.Engine, replayed.Engine)
	}
}
