package jobwire

import (
	"fmt"
	"reflect"
	"testing"

	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/kmedian"
	"dpc/internal/uncertain"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Job{
		{Kind: KindPoint, Core: core.Config{K: 5, T: 40, Objective: core.Center,
			LocalOpts: kmedian.Options{Seed: 9}, Options: engine.Options{Workers: 3}}},
		{Kind: KindUncertain, Obj: uncertain.CenterPP,
			Unc: uncertain.Config{K: 2, T: 7, Eps: 0.5, LocalOpts: kmedian.Options{Seed: -4}}},
		{Kind: KindCenterG, CenterG: uncertain.CenterGConfig{K: 3, T: 11, TauBase: 4, OneRound: true}},
	}
	for _, in := range cases {
		b, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: %v", in.Kind, err)
		}
		out, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", in.Kind, err)
		}
		if out.Kind != in.Kind {
			t.Fatalf("kind %v round-tripped to %v", in.Kind, out.Kind)
		}
		switch in.Kind {
		case KindPoint:
			// The point payload reuses the handshake encoding, which
			// re-applies defaults; compare against that canonical form.
			want, err := core.DecodeConfig(core.EncodeConfig(in.Core))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Core, want) {
				t.Fatalf("core config %+v, want %+v", out.Core, want)
			}
		case KindUncertain:
			if out.Obj != in.Obj || !reflect.DeepEqual(out.Unc, in.Unc) {
				t.Fatalf("uncertain job %+v/%+v, want %+v/%+v", out.Obj, out.Unc, in.Obj, in.Unc)
			}
		case KindCenterG:
			if !reflect.DeepEqual(out.CenterG, in.CenterG) {
				t.Fatalf("center-g config %+v, want %+v", out.CenterG, in.CenterG)
			}
		}
	}
}

// TestLegacyFrameRejected: a raw core.EncodeConfig blob without the
// envelope (the retired first job-frame format) is an error, not a point
// job.
func TestLegacyFrameRejected(t *testing.T) {
	cfg := core.Config{K: 4, T: 9, LocalOpts: kmedian.Options{Seed: 2}}
	if j, err := Decode(core.EncodeConfig(cfg)); err == nil {
		t.Fatalf("legacy frame decoded to %+v", j)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {magic}, {magic, 99, 1, 2}, {magic, byte(KindUncertain), '{'}, {7, 7, 7}} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("decoded garbage %v", b)
		}
	}
}

// FuzzJobFrame feeds arbitrary bytes to the site-side frame decoder (and
// through it core.DecodeConfig and the uncertain JSON payloads): Decode
// must never panic, and an accepted frame must re-encode to a frame that
// decodes to the same Job.
func FuzzJobFrame(f *testing.F) {
	seeds := []Job{
		{Kind: KindPoint, Core: core.Config{K: 5, T: 40, Objective: core.Center,
			LocalOpts: kmedian.Options{Seed: 9}, Options: engine.Options{Workers: 3, Index: true, Pivots: 7}}},
		{Kind: KindUncertain, Obj: uncertain.CenterPP,
			Unc: uncertain.Config{K: 2, T: 7, Eps: 0.5, LocalOpts: kmedian.Options{Seed: -4}}},
		{Kind: KindCenterG, CenterG: uncertain.CenterGConfig{K: 3, T: 11, TauBase: 4, OneRound: true}},
	}
	for _, j := range seeds {
		b, err := Encode(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(core.EncodeConfig(core.Config{K: 4, T: 9}))
	f.Add(append([]byte{magic, byte(KindUncertain)}, `{"obj":1,"cfg":{"K":2,"topology":{"branch":5}}}`...))
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := Decode(b)
		if err != nil {
			return
		}
		re, err := Encode(j)
		if err != nil {
			t.Fatalf("accepted frame %x does not re-encode: %v", b, err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame %x rejected: %v", re, err)
		}
		// %#v compares NaN fields (a config record may carry any float
		// bits) as equal, where reflect.DeepEqual would not.
		if got, want := fmt.Sprintf("%#v", back), fmt.Sprintf("%#v", j); got != want {
			t.Fatalf("frame %x decoded to\n%s\nre-encoded frame decoded to\n%s", b, want, got)
		}
	})
}
