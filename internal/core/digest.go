package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/bits"
	"slices"
)

// ViewHasher accumulates the canonical per-packet attribution digest over
// a stream of emitted views. Feeding every emitted view of a live session
// (in emission order) produces the same digest as Report.PacketsDigest
// over Correlate's one-shot feed of the same input — the equivalence
// the serve acceptance tests pin. The line buffer is recycled, so once
// it has held the longest line, Add allocates nothing.
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
	b = appendUint(b, uint64(v.Flow))
	b = append(b, '/')
	b = appendUint(b, uint64(v.Seq))
	b = append(b, '/')
	b = append(b, v.Kind.String()...)
	b = append(b, " sent="...)
	b = appendInt(b, int64(v.SentAt))
	b = append(b, " core="...)
	b = appendInt(b, int64(v.CoreAt))
	if v.SeenCore {
		b = append(b, " seen=true"...)
	} else {
		b = append(b, " seen=false"...)
	}
	b = append(b, " ul="...)
	b = appendInt(b, int64(v.ULDelay))
	b = append(b, " q="...)
	b = appendInt(b, int64(v.QueueWait))
	b = append(b, " bsr="...)
	b = appendInt(b, int64(v.BSRWait))
	b = append(b, " harq="...)
	b = appendInt(b, int64(v.HARQDelay))
	b = append(b, " g="...)
	b = appendInt(b, int64(v.GrantKind))
	b = append(b, " tbs="...)
	for i, id := range v.TBIDs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUint(b, id)
	}
	b = append(b, '\n')
	return b
}

// The digest line is a dozen integers in ~110 bytes, so rendering them
// is a large share of a digest's cost next to SHA-256. appendInt and
// appendUint write the same bytes as strconv.AppendInt / AppendUint in
// base 10 (FuzzAppendDecimal holds them to it), but straight into the
// line: the digit count first, then the digits from the back, two per
// table lookup and eight per 64-bit division.

// digitPairs holds the two-digit forms of 0 through 99.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// pow10 holds 10^0 through 10^19, the largest power of ten a uint64 holds.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of u (1 for 0).
func decimalLen(u uint64) int {
	// bits·1233/4096 (log10 2 ≈ 1233/4096) is floor(log10 u) or one
	// less; u|1 has the same digits as u and a nonzero bit length.
	u |= 1
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	return n
}

// appendUint appends u in decimal, as strconv.AppendUint(b, u, 10).
func appendUint(b []byte, u uint64) []byte {
	n := decimalLen(u)
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	d := b[len(b)-n:]
	i := n
	for u >= 1e8 {
		q := u / 1e8
		r := uint32(u - q*1e8)
		u = q
		for range 4 {
			k := r % 100 * 2
			r /= 100
			i -= 2
			d[i], d[i+1] = digitPairs[k], digitPairs[k+1]
		}
	}
	r := uint32(u)
	for r >= 100 {
		k := r % 100 * 2
		r /= 100
		i -= 2
		d[i], d[i+1] = digitPairs[k], digitPairs[k+1]
	}
	if r >= 10 {
		d[0], d[1] = digitPairs[r*2], digitPairs[r*2+1]
	} else {
		d[0] = byte('0' + r)
	}
	return b
}

// appendInt appends i in decimal, as strconv.AppendInt(b, i, 10).
func appendInt(b []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
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
