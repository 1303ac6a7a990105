package tree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dpc/internal/comm"
)

// An aggregator forwards one batch per round: its subtree's per-site
// payloads in global site order, each compactly re-encoded, plus the
// physical per-level byte counts observed below it. The batch is the
// "merged summary" of the hierarchical-aggregation literature, specialized
// to this repository's invariant that the coordinator must reconstruct the
// exact site payload bytes (centers stay byte-identical to the star).
//
// Wire form (all varints are unsigned LEB128, binary.PutUvarint):
//
//	byte    magic (0xB7)
//	byte    version (1)
//	varint  L — level count
//	L ×     varint down, varint up      (physical bytes this round; entry 0
//	                                     is this aggregator's own links)
//	varint  n — leaf section count
//	n ×     byte method; varint workNanos; varint len; len bytes
//
// Sections are compacted per known payload shape (see compact below) with
// a raw fallback; the compactor proves losslessness by expanding its own
// output and comparing bytes before committing to a method, so an unknown
// or adversarial payload can never be altered, only carried verbatim.
const (
	batchMagic   = 0xB7
	batchVersion = 1

	// Decoder guards against hostile length fields.
	maxLevels   = 64
	maxSections = 1 << 22
)

// Section methods. Raw must stay 0: it is the universal fallback.
const (
	mRaw byte = iota
	mHull
	mPts
	mWeighted  // WeightedPointsMsg: n, dim, n×(dim coords + weight)
	mCollapsed // CollapsedMsg: n, dim, n×(dim coords + ell + weight)
	mMulti
	methodCount
)

// section is one leaf site's payload inside a batch, still compacted.
type section struct {
	method byte
	work   time.Duration
	data   []byte
}

// batch is the decoded form an aggregator merges and the root expands.
type batch struct {
	levels []comm.TreeLevel
	secs   []section
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// encodeBatch serializes a batch.
func encodeBatch(bt batch) []byte {
	n := 2 + 10*(2*len(bt.levels)+1)
	for _, s := range bt.secs {
		n += 1 + 20 + len(s.data)
	}
	out := make([]byte, 0, n)
	out = append(out, batchMagic, batchVersion)
	out = appendUvarint(out, uint64(len(bt.levels)))
	for _, l := range bt.levels {
		out = appendUvarint(out, uint64(l.Down))
		out = appendUvarint(out, uint64(l.Up))
	}
	out = appendUvarint(out, uint64(len(bt.secs)))
	for _, s := range bt.secs {
		out = append(out, s.method)
		out = appendUvarint(out, uint64(s.work))
		out = appendUvarint(out, uint64(len(s.data)))
		out = append(out, s.data...)
	}
	return out
}

// vreader reads the varint-based batch/section encodings with bounds
// checks, the same hostile-input posture as comm's fixed-width reader.
type vreader struct {
	b   []byte
	off int
}

func (r *vreader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tree: truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *vreader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("tree: truncated at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *vreader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("tree: length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

func (r *vreader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("tree: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// decodeBatch parses a batch, validating bounds but leaving sections
// compacted (aggregators merge without expanding).
func decodeBatch(raw []byte) (batch, error) {
	r := &vreader{b: raw}
	magic, err := r.byte()
	if err != nil {
		return batch{}, err
	}
	if magic != batchMagic {
		return batch{}, fmt.Errorf("tree: not a batch (leading byte %#x)", magic)
	}
	ver, err := r.byte()
	if err != nil {
		return batch{}, err
	}
	if ver != batchVersion {
		return batch{}, fmt.Errorf("tree: unknown batch version %d", ver)
	}
	nl, err := r.uvarint()
	if err != nil {
		return batch{}, err
	}
	if nl == 0 || nl > maxLevels {
		return batch{}, fmt.Errorf("tree: %d levels (want 1..%d)", nl, maxLevels)
	}
	bt := batch{levels: make([]comm.TreeLevel, nl)}
	for i := range bt.levels {
		d, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		u, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		bt.levels[i] = comm.TreeLevel{Down: int64(d), Up: int64(u)}
	}
	ns, err := r.uvarint()
	if err != nil {
		return batch{}, err
	}
	if ns > maxSections {
		return batch{}, fmt.Errorf("tree: %d sections (cap %d)", ns, maxSections)
	}
	// Allocation guard: every section takes at least 3 bytes (method, work
	// and length varints), so a count the remaining bytes cannot hold is
	// rejected before it sizes the slice.
	if rem := uint64(len(raw) - r.off); ns > rem/3 {
		return batch{}, fmt.Errorf("tree: %d sections exceed %d remaining bytes", ns, rem)
	}
	bt.secs = make([]section, 0, ns)
	for i := uint64(0); i < ns; i++ {
		m, err := r.byte()
		if err != nil {
			return batch{}, err
		}
		if m >= methodCount {
			return batch{}, fmt.Errorf("tree: section %d has unknown method %d", i, m)
		}
		w, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		ln, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		data, err := r.take(ln)
		if err != nil {
			return batch{}, fmt.Errorf("tree: section %d: %w", i, err)
		}
		bt.secs = append(bt.secs, section{method: m, work: time.Duration(w), data: data})
	}
	if err := r.done(); err != nil {
		return batch{}, err
	}
	return bt, nil
}

// addLevels sums b into a element-wise, growing a as needed (subtrees of
// unequal depth sum where they overlap).
func addLevels(a, b []comm.TreeLevel) []comm.TreeLevel {
	for len(a) < len(b) {
		a = append(a, comm.TreeLevel{})
	}
	for i, l := range b {
		a[i].Down += l.Down
		a[i].Up += l.Up
	}
	return a
}

// --- per-payload compaction -------------------------------------------------
//
// The star's wire formats (internal/comm) spend fixed u32/f64 slots on
// values that are small integers in practice: message counts, hull vertex
// budgets, and precluster weights (which are point counts). A level-1
// aggregator re-encodes those slots as varints; everything float-valued is
// carried bit-exact. Each compactor is paired with an expander that is its
// exact inverse, and compact() verifies the pair on every payload before
// using it, so the worst case is a raw copy, never corruption.

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// compactHull re-encodes a HullMsg (u32 n; n × (u32 q, f64 c)).
func compactHull(p []byte) ([]byte, bool) {
	if len(p) < 4 {
		return nil, false
	}
	n := uint64(le32(p))
	if uint64(len(p)) != 4+12*n {
		return nil, false
	}
	out := make([]byte, 0, len(p))
	out = appendUvarint(out, n)
	for off := 4; off < len(p); off += 12 {
		out = appendUvarint(out, uint64(le32(p[off:])))
		out = append(out, p[off+4:off+12]...)
	}
	return out, true
}

func expandHull(c []byte) ([]byte, error) {
	r := &vreader{b: c}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c)) { // each vertex takes >= 9 compact bytes
		return nil, fmt.Errorf("tree: hull count %d too large", n)
	}
	out := make([]byte, 0, 4+12*n)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for i := uint64(0); i < n; i++ {
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if q > math.MaxUint32 {
			return nil, fmt.Errorf("tree: hull q %d overflows u32", q)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(q))
		cb, err := r.take(8)
		if err != nil {
			return nil, err
		}
		out = append(out, cb...)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// compactBlock handles the family (u32 n; u32 dim; n × (stride f64 words))
// where the last word of each row is a weight that is an integral count in
// practice: PointsMsg (no weight), WeightedPointsMsg (1 trailing weight
// after dim coords), CollapsedMsg (ell then weight after dim coords).
// extra is the number of f64 words between the coords and the weight;
// weighted says whether a weight word exists at all.
func compactBlock(p []byte, extra int, weighted bool) ([]byte, bool) {
	if len(p) < 8 {
		return nil, false
	}
	n := uint64(le32(p))
	dim := uint64(le32(p[4:]))
	if dim > 1<<20 {
		return nil, false
	}
	words := dim + uint64(extra)
	if weighted {
		words++
	}
	if uint64(len(p)) != 8+8*n*words || (n > 0 && words == 0) {
		return nil, false
	}
	// One flag byte: varint weights only when every weight is a small
	// non-negative integral float (bit-exactly recoverable); otherwise the
	// rows are copied raw and only the header shrinks.
	intW := weighted
	if weighted {
		for off := 8 + 8*(dim+uint64(extra)); off < uint64(len(p)); off += 8 * words {
			w := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			if !(w >= 0 && w == math.Trunc(w) && w < 1<<53 && !math.Signbit(w)) {
				intW = false
				break
			}
		}
	}
	out := make([]byte, 0, len(p))
	out = appendUvarint(out, n)
	out = appendUvarint(out, dim)
	flag := byte(0)
	if intW {
		flag = 1
	}
	out = append(out, flag)
	if !intW {
		return append(out, p[8:]...), true
	}
	rawPerRow := 8 * (dim + uint64(extra))
	for off := uint64(8); off < uint64(len(p)); off += 8 * words {
		out = append(out, p[off:off+rawPerRow]...)
		w := math.Float64frombits(binary.LittleEndian.Uint64(p[off+rawPerRow:]))
		out = appendUvarint(out, uint64(w))
	}
	return out, true
}

func expandBlock(c []byte, extra int, weighted bool) ([]byte, error) {
	r := &vreader{b: c}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	dim, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dim > 1<<20 {
		return nil, fmt.Errorf("tree: block dim %d too large", dim)
	}
	flag, err := r.byte()
	if err != nil {
		return nil, err
	}
	words := dim + uint64(extra)
	if weighted {
		words++
	}
	if n > 0 && words == 0 {
		return nil, fmt.Errorf("tree: zero-width block rows")
	}
	// Allocation guard (comm's need() idiom): bound the claimed row count by
	// the bytes actually present before sizing the output buffer from it.
	// Raw rows cost 8*words compact bytes each; varint-weight rows cost at
	// least 8*(words-1)+1.
	rem := uint64(len(c) - r.off)
	minRow := 8 * words
	if flag != 0 && words > 0 {
		minRow = 8*(words-1) + 1
	}
	if words > 0 && (n > rem || n*minRow > rem) {
		return nil, fmt.Errorf("tree: block count %d exceeds %d remaining bytes", n, rem)
	}
	out := make([]byte, 0, 8+8*n*words)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(dim))
	if flag == 0 {
		rest, err := r.take(8 * n * words)
		if err != nil {
			return nil, err
		}
		out = append(out, rest...)
	} else {
		if !weighted {
			return nil, fmt.Errorf("tree: weight flag on unweighted block")
		}
		rawPerRow := 8 * (dim + uint64(extra))
		for i := uint64(0); i < n; i++ {
			raw, err := r.take(rawPerRow)
			if err != nil {
				return nil, err
			}
			out = append(out, raw...)
			w, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if w >= 1<<53 {
				return nil, fmt.Errorf("tree: weight %d overflows integral float64", w)
			}
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(w)))
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// compactMulti re-encodes a comm.Multi container (u32 count; count ×
// (u32 len, bytes)), compacting each part with the scalar methods.
func compactMulti(p []byte) ([]byte, bool) {
	if len(p) < 4 {
		return nil, false
	}
	n := uint64(le32(p))
	if n > 1<<16 {
		return nil, false
	}
	off := uint64(4)
	parts := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		if off+4 > uint64(len(p)) {
			return nil, false
		}
		sz := uint64(le32(p[off:]))
		off += 4
		if off+sz > uint64(len(p)) {
			return nil, false
		}
		parts = append(parts, p[off:off+sz])
		off += sz
	}
	if off != uint64(len(p)) {
		return nil, false
	}
	out := make([]byte, 0, len(p))
	out = appendUvarint(out, n)
	for _, part := range parts {
		s := compactScalar(part)
		out = append(out, s.method)
		out = appendUvarint(out, uint64(len(s.data)))
		out = append(out, s.data...)
	}
	return out, true
}

func expandMulti(c []byte) ([]byte, error) {
	r := &vreader{b: c}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("tree: multi count %d too large", n)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(n))
	for i := uint64(0); i < n; i++ {
		m, err := r.byte()
		if err != nil {
			return nil, err
		}
		if m == mMulti || m >= methodCount {
			return nil, fmt.Errorf("tree: multi part %d has bad method %d", i, m)
		}
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		data, err := r.take(ln)
		if err != nil {
			return nil, err
		}
		part, err := expandSection(section{method: m, data: data})
		if err != nil {
			return nil, fmt.Errorf("tree: multi part %d: %w", i, err)
		}
		if uint64(len(part)) > math.MaxUint32 {
			return nil, fmt.Errorf("tree: multi part %d too large", i)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(part)))
		out = append(out, part...)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// compactScalar tries the non-container methods on one payload, verifying
// the round trip, and falls back to a raw copy.
func compactScalar(p []byte) section {
	type attempt struct {
		method  byte
		compact func([]byte) ([]byte, bool)
	}
	attempts := []attempt{
		{mHull, compactHull},
		{mWeighted, func(b []byte) ([]byte, bool) { return compactBlock(b, 0, true) }},
		{mCollapsed, func(b []byte) ([]byte, bool) { return compactBlock(b, 1, true) }},
		{mPts, func(b []byte) ([]byte, bool) { return compactBlock(b, 0, false) }},
	}
	for _, a := range attempts {
		c, ok := a.compact(p)
		if !ok || len(c) >= len(p) {
			continue
		}
		back, err := expandSection(section{method: a.method, data: c})
		if err != nil || !bytes.Equal(back, p) {
			continue
		}
		return section{method: a.method, data: c}
	}
	return section{method: mRaw, data: p}
}

// compact re-encodes one leaf payload for a batch, proving losslessness on
// every payload before committing to a non-raw method.
func compact(p []byte) section {
	if c, ok := compactMulti(p); ok && len(c) < len(p) {
		if back, err := expandMulti(c); err == nil && bytes.Equal(back, p) {
			return section{method: mMulti, data: c}
		}
	}
	return compactScalar(p)
}

// expandSection recovers the exact leaf payload bytes of a section.
func expandSection(s section) ([]byte, error) {
	switch s.method {
	case mRaw:
		return s.data, nil
	case mHull:
		return expandHull(s.data)
	case mPts:
		return expandBlock(s.data, 0, false)
	case mWeighted:
		return expandBlock(s.data, 0, true)
	case mCollapsed:
		return expandBlock(s.data, 1, true)
	case mMulti:
		return expandMulti(s.data)
	}
	return nil, fmt.Errorf("tree: unknown section method %d", s.method)
}
