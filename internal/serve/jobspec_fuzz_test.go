package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dpc/internal/jobwire"
)

// FuzzJobSpec feeds arbitrary POST /v1/jobs bodies through the server's
// JSON decode and Validate: neither may panic, and an accepted spec's Job
// must cross the job-frame wire unchanged. The frame a site decodes must
// re-encode to the identical bytes and describe the same run: the same
// kind, and for point jobs the same site-side parameters (the handshake
// record applies defaults and leaves the coordinator-local topology out),
// for the uncertain kinds the identical configuration.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"dataset":"d","k":3,"t":9,"sites":2,"seed":1}`,
		`{"dataset":"d","k":3,"t":9,"objective":"center","engine":"jv","topology":"tree,branch=4","eps":0.5}`,
		`{"k":3,"t":1,"objective":"means","variant":"noship","lloyd_polish":true,"priority":"high"}`,
		`{"k":2,"t":4,"objective":"u-median","variant":"1round","seed":-7}`,
		`{"k":2,"t":4,"objective":"u-centerpp","engine":{"algo":"localsearch","index":true,"pivots":7,"no_cache":true}}`,
		`{"k":2,"t":4,"objective":"u-centerg","engine":{"reference":true},"topology":{"tree":true,"branch":3}}`,
		`{"k":-1}`,
		`{"engine":{"algo":7}}`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		job, err := spec.Job()
		if err != nil {
			t.Fatalf("validated spec %s: Job: %v", body, err)
		}
		blob, err := jobwire.Encode(job)
		if err != nil {
			t.Fatalf("validated spec %s: Encode: %v", body, err)
		}
		dec, err := jobwire.Decode(blob)
		if err != nil {
			t.Fatalf("validated spec %s: frame %x rejected: %v", body, blob, err)
		}
		re, err := jobwire.Encode(dec)
		if err != nil || !bytes.Equal(re, blob) {
			t.Fatalf("spec %s: frame %x re-encoded to %x (err %v)", body, blob, re, err)
		}
		if dec.Kind != job.Kind || dec.String() != job.String() {
			t.Fatalf("spec %s: frame decoded to %v job %q, want %v job %q", body, dec.Kind, dec, job.Kind, job)
		}
		if job.Kind == jobwire.KindPoint {
			got, want := dec.Core, job.Core
			if got.K != want.K || got.T != want.T || got.Objective != want.Objective || got.Variant != want.Variant ||
				got.LloydPolish != want.LloydPolish || got.Engine != want.Engine ||
				got.LocalOpts.Seed != want.LocalOpts.Seed || got.Options != want.Options {
				t.Fatalf("spec %s: point frame carries %+v, want %+v", body, got, want)
			}
			return
		}
		// %#v compares the float fields bit for bit (NaN-safe).
		if got, want := fmt.Sprintf("%#v", dec), fmt.Sprintf("%#v", job); got != want {
			t.Fatalf("spec %s: frame decoded to\n%s\nwant\n%s", body, got, want)
		}
	})
}
