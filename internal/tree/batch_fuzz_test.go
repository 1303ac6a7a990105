package tree

import (
	"bytes"
	"runtime"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/metric"
)

// FuzzTreeBatch feeds arbitrary bytes to the batch decoder an aggregator
// or root runs on every child reply: decodeBatch must never panic, an
// accepted batch must re-encode to bytes that decode to the same batch,
// and expanding its sections may fail but never panic. The same bytes,
// taken as one leaf payload, must survive compaction losslessly:
// expandSection(compact(p)) == p for any p.
func FuzzTreeBatch(f *testing.F) {
	pts := []metric.Point{{1.5, -2.25, 3e9}, {0.125, 4, -5}}
	payloads := []comm.Payload{
		comm.HullMsg{V: []geom.Vertex{{Q: 0, C: 91.5}, {Q: 3, C: 40.25}}},
		comm.PointsMsg{Pts: pts},
		comm.WeightedPointsMsg{Pts: pts, W: []float64{3, 0.5}},
		comm.CollapsedMsg{Y: pts, Ell: []float64{0.5, 1.25}, W: []float64{1, 2}},
		comm.Multi{Parts: []comm.Payload{comm.WeightedPointsMsg{Pts: pts, W: []float64{4, 5}}, comm.PointsMsg{Pts: pts}}},
	}
	bt := batch{levels: []comm.TreeLevel{{Down: 12, Up: 300}}}
	for _, p := range payloads {
		b, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		bt.secs = append(bt.secs, compact(b))
	}
	f.Add(encodeBatch(bt))
	f.Add([]byte{batchMagic, batchVersion, 1, 0, 0, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := decodeBatch(b); err == nil {
			re := encodeBatch(got)
			back, err := decodeBatch(re)
			if err != nil {
				t.Fatalf("re-encoded batch %x rejected: %v", re, err)
			}
			if !bytes.Equal(encodeBatch(back), re) {
				t.Fatalf("batch %x does not re-encode stably", b)
			}
			for _, s := range got.secs {
				expandSection(s)
			}
		}
		s := compact(b)
		back, err := expandSection(s)
		if err != nil || !bytes.Equal(back, b) {
			t.Fatalf("payload %x compacted (method %d) to %x, expanded to %x (err %v)", b, s.method, s.data, back, err)
		}
	})
}

// TestDecodeBatchBoundsSectionCount: a 9-byte batch claiming ~4M sections
// is rejected before the claim sizes an allocation (it used to reserve
// about 160 MB for the section slice).
func TestDecodeBatchBoundsSectionCount(t *testing.T) {
	hostile := []byte{batchMagic, batchVersion, 1, 0, 0, 0xff, 0xff, 0xff, 0x01}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBatch(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile batch accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(hostile), grew)
	}
}
