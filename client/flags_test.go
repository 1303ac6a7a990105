package client

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"dpc/internal/engine"
)

// TestBindFlagsMatchesJSONNames is the anti-drift guarantee: every flag
// BindFlags registers is a Request JSON field name (underscores dashed),
// every taggable scalar field gets a flag, and the data payload fields do
// not leak into the flag surface.
func TestBindFlagsMatchesJSONNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var req Request
	BindFlags(fs, &req)

	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = true })

	rt := reflect.TypeOf(Request{})
	want := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		usage := f.Tag.Get("usage")
		if name == "" || name == "-" || usage == "" || usage == "-" {
			continue
		}
		want[strings.ReplaceAll(name, "_", "-")] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface %v\ndiffers from Request JSON names %v", got, want)
	}
	for _, banned := range []string{"points", "ground", "nodes"} {
		if got[banned] {
			t.Fatalf("data field %q leaked into the flag surface", banned)
		}
	}

	// Spot-check the underscore mapping and that parsing lands in the
	// struct (the property the generated CLI depends on).
	if err := fs.Parse([]string{"-lloyd-polish", "-k", "7", "-objective", "u-means", "-queue-timeout-ms", "5"}); err != nil {
		t.Fatal(err)
	}
	if !req.LloydPolish || req.K != 7 || req.Objective != "u-means" || req.QueueTimeoutMS != 5 {
		t.Fatalf("parsed request %+v", req)
	}

	// And the JSON names really are the wire names the server decodes.
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"lloyd_polish":true`, `"k":7`, `"objective":"u-means"`, `"queue_timeout_ms":5`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("marshalled request %s lacks %s", raw, key)
		}
	}
}

// TestRequestEngineReachesJobSpec is the client surface of the engine-knob
// propagation check (internal/bench's TestEngineKnobsReachSolvers follows
// the job spec on to the solver configs): every knob set on Request.Engine
// arrives in the JobSpec all backends derive, and the flag form parses to
// the same spec.
func TestRequestEngineReachesJobSpec(t *testing.T) {
	for _, in := range []engine.Spec{
		{Algo: "jv", Options: engine.Options{Workers: 3, NoCache: true, Index: true, Pivots: 7}},
		{Algo: "jv", Options: engine.Options{Workers: 3, NoCache: true, Index: true, Pivots: 7, Reference: true}},
	} {
		spec := Request{K: 5, T: 10, Engine: in}.spec()
		if spec.Engine != in {
			t.Errorf("JobSpec.Engine = %+v, want %+v", spec.Engine, in)
		}
		if got, want := spec.EngineOptions(), in.Options.Normalize(); got != want {
			t.Errorf("JobSpec.EngineOptions() = %+v, want %+v", got, want)
		}
		var req Request
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		BindFlags(fs, &req)
		if err := fs.Parse([]string{"-engine", in.String()}); err != nil {
			t.Fatal(err)
		}
		if req.Engine != in {
			t.Errorf("-engine %s parsed to %+v, want %+v", in.String(), req.Engine, in)
		}
	}
}
