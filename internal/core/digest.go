package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
)

// ViewHasher accumulates the canonical per-packet attribution digest over
// a stream of emitted views. Feeding every emitted view of a live session
// (in emission order) produces the same digest as Report.PacketsDigest
// over Correlate's one-shot feed of the same input — the equivalence
// the serve acceptance tests pin. The line buffer is recycled, so Add
// performs at most one (amortized) allocation.
type ViewHasher struct {
	h   hash.Hash
	n   int
	buf []byte
}

// NewViewHasher returns an empty hasher.
func NewViewHasher() *ViewHasher {
	return &ViewHasher{h: sha256.New()}
}

// Add folds one view into the digest.
func (vh *ViewHasher) Add(v PacketView) {
	vh.buf = appendViewLine(vh.buf[:0], v)
	vh.h.Write(vh.buf)
	vh.n++
}

// Count reports how many views the digest covers.
func (vh *ViewHasher) Count() int { return vh.n }

// Sum returns the hex digest of everything added so far. It does not
// consume the hasher: further Adds continue the stream.
func (vh *ViewHasher) Sum() string {
	return hex.EncodeToString(vh.h.Sum(nil))
}

// appendViewLine renders one view's determinism-relevant fields —
// identity, corrected timestamps, and the full uplink delay attribution —
// as a canonical line.
func appendViewLine(b []byte, v PacketView) []byte {
	b = strconv.AppendUint(b, uint64(v.Flow), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(v.Seq), 10)
	b = append(b, '/')
	b = append(b, v.Kind.String()...)
	b = append(b, " sent="...)
	b = strconv.AppendInt(b, int64(v.SentAt), 10)
	b = append(b, " core="...)
	b = strconv.AppendInt(b, int64(v.CoreAt), 10)
	b = append(b, " seen="...)
	b = strconv.AppendBool(b, v.SeenCore)
	b = append(b, " ul="...)
	b = strconv.AppendInt(b, int64(v.ULDelay), 10)
	b = append(b, " q="...)
	b = strconv.AppendInt(b, int64(v.QueueWait), 10)
	b = append(b, " bsr="...)
	b = strconv.AppendInt(b, int64(v.BSRWait), 10)
	b = append(b, " harq="...)
	b = strconv.AppendInt(b, int64(v.HARQDelay), 10)
	b = append(b, " g="...)
	b = strconv.AppendInt(b, int64(v.GrantKind), 10)
	b = append(b, " tbs="...)
	for i, id := range v.TBIDs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, id, 10)
	}
	b = append(b, '\n')
	return b
}

// PacketsDigest is the offline form of the streamed digest: the canonical
// hash over every packet view in send order. For the same
// input, a live session's ViewHasher converges to this value once every
// packet has been emitted.
func (r *Report) PacketsDigest() string {
	vh := NewViewHasher()
	for _, v := range r.Packets {
		vh.Add(v)
	}
	return vh.Sum()
}
