package session

import (
	"bytes"
	"encoding/json"
	"math"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
	"athena/internal/units"
)

// UnmarshalJSON decodes one feed body. The wire form json.Marshal writes
// for a Batch is parsed in a single pass with no reflection, appending
// into the slices b already holds; any other input — unknown, duplicate,
// case-variant or escaped keys, non-canonical or out-of-range numbers,
// null where an object is expected, any syntax error — is handed whole to
// encoding/json, so the accepted set, the decoded value and every error
// string are the stdlib's. Which decoder runs depends only on the shape
// of the input.
//
// Unlike the stdlib's struct merge, b is replaced, not merged into: a key
// absent from data leaves its field empty (the omitempty wire form means
// "no records", and a reused Batch must not re-feed its previous ones).
//
// The wire form carries only what a capture or a sniffer sees: the
// simulator's packet identities (Record.PacketID, TBRecord.PacketIDs)
// are `json:"-"`. A body from an older client that still sends them, or
// the capture fields since removed (Point, RTPSeq, MediaMeta), has keys
// outside the grammar, so encoding/json decodes it and drops those keys.
func (b *Batch) UnmarshalJSON(data []byte) error {
	if b.decodeFast(data) {
		return nil
	}
	*b = Batch{}
	return unmarshalBatchStd(data, b)
}

// batchFields lets unmarshalBatchStd name its method-less twin "Batch".
type batchFields = Batch

// unmarshalBatchStd is the encoding/json decode of a Batch: the fallback
// for input the fast path declines and the reference the differential
// fuzzer holds the fast path equal to. The local type drops UnmarshalJSON
// (no recursion) and keeps the name, so an UnmarshalTypeError still reads
// "Go struct field Batch.sender".
func unmarshalBatchStd(data []byte, b *Batch) error {
	type Batch batchFields
	return json.Unmarshal(data, (*Batch)(b))
}

// decodeFast parses data as exactly one canonical Batch object and
// reports whether it did; on false b holds a partial decode and the
// caller falls back.
func (b *Batch) decodeFast(data []byte) bool {
	b.Sender, b.Core, b.TBs, b.AdvanceTo = b.Sender[:0], b.Core[:0], b.TBs[:0], 0
	d := fastReader{data: data}
	if !d.batch(b) {
		return false
	}
	d.ws()
	return d.pos == len(data)
}

// batch parses the top-level object into b, whose fields are empty.
func (d *fastReader) batch(b *Batch) bool {
	empty, ok := d.open('{', '}')
	if !ok || empty {
		return ok
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		var bit uint
		switch string(key) {
		case "sender":
			bit = 1 << 0
			b.Sender, ok = d.records(b.Sender)
		case "core":
			bit = 1 << 1
			b.Core, ok = d.records(b.Core)
		case "tbs":
			bit = 1 << 2
			b.TBs, ok = d.tbs(b.TBs)
		case "advance_to_ns":
			bit = 1 << 3
			var n int64
			n, ok = d.int64()
			b.AdvanceTo = time.Duration(n)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if done, ok := d.sep('}'); done || !ok {
			return ok
		}
	}
}

// fastReader is a cursor over a feed body. Every method reports ok=false
// on anything outside the canonical grammar and leaves the cursor
// wherever it stopped: a declined parse is abandoned, never resumed.
type fastReader struct {
	data []byte
	pos  int
}

// ws skips insignificant whitespace and returns the byte under the
// cursor, 0 at end of input (a literal NUL is outside the grammar too).
func (d *fastReader) ws() byte {
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		d.pos++
	}
	return 0
}

// enter consumes the delimiter c.
func (d *fastReader) enter(c byte) bool {
	if d.ws() != c {
		return false
	}
	d.pos++
	return true
}

// open consumes a container's opening delimiter and, when the container
// is empty, its closing one too.
func (d *fastReader) open(open, close byte) (empty, ok bool) {
	if !d.enter(open) {
		return false, false
	}
	return d.enter(close), true
}

// sep consumes what follows an element: ',' continues the container,
// close ends it.
func (d *fastReader) sep(close byte) (done, ok bool) {
	switch d.ws() {
	case ',':
		d.pos++
		return false, true
	case close:
		d.pos++
		return true, true
	}
	return false, false
}

// lit consumes the literal s if it is next.
func (d *fastReader) lit(s string) bool {
	d.ws()
	if rest := d.data[d.pos:]; len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// key consumes `"name":` and returns the bytes between the quotes. An
// escaped or case-variant spelling of a field name — which the stdlib
// would match — does not compare equal to it, and every caller declines
// an unknown key, so no unescaping is needed.
func (d *fastReader) key() ([]byte, bool) {
	if !d.enter('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.data[d.pos:], '"')
	if n < 0 {
		return nil, false
	}
	k := d.data[d.pos : d.pos+n]
	d.pos += n + 1
	return k, d.enter(':')
}

// digits reads a canonical decimal integer (no sign, no leading zero, no
// fraction or exponent — whatever follows must satisfy the caller's sep)
// of at most max.
func (d *fastReader) digits(max uint64) (uint64, bool) {
	start := d.pos
	var n uint64
	for d.pos < len(d.data) {
		c := uint64(d.data[d.pos] - '0')
		if c > 9 {
			break
		}
		if n > (max-c)/10 || (n == 0 && d.pos > start) {
			return 0, false // past max, or a second digit after a leading 0
		}
		n = n*10 + c
		d.pos++
	}
	return n, d.pos > start
}

func (d *fastReader) uint(max uint64) (uint64, bool) {
	d.ws()
	return d.digits(max)
}

// int64 reads a signed integer; "-0" is declined with the non-canonical.
func (d *fastReader) int64() (int64, bool) {
	if d.ws() != '-' {
		n, ok := d.digits(math.MaxInt64)
		return int64(n), ok
	}
	d.pos++
	n, ok := d.digits(1 << 63)
	return -int64(n), ok && n != 0
}

func (d *fastReader) bool() (v, ok bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// records appends a JSON array of packet.Record objects (or null) to dst.
// (tbs below is its twin: a shared generic taking the element parser as a
// func value makes the reader escape, one allocation per request.)
func (d *fastReader) records(dst []packet.Record) ([]packet.Record, bool) {
	if d.lit("null") {
		return dst, true
	}
	empty, ok := d.open('[', ']')
	if !ok || empty {
		return dst, ok
	}
	for {
		dst = append(dst, packet.Record{})
		if !d.record(&dst[len(dst)-1]) {
			return dst, false
		}
		if done, ok := d.sep(']'); done || !ok {
			return dst, ok
		}
	}
}

// record parses one packet.Record object into the zero value r points at.
func (d *fastReader) record(r *packet.Record) bool {
	empty, ok := d.open('{', '}')
	if !ok || empty {
		return ok
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		var bit uint
		var n uint64
		var i int64
		switch string(key) {
		case "Kind":
			bit = 1 << 0
			n, ok = d.uint(math.MaxUint8)
			r.Kind = packet.Kind(n)
		case "Flow":
			bit = 1 << 1
			n, ok = d.uint(math.MaxUint32)
			r.Flow = uint32(n)
		case "Seq":
			bit = 1 << 2
			n, ok = d.uint(math.MaxUint32)
			r.Seq = uint32(n)
		case "Size":
			bit = 1 << 3
			i, ok = d.int64()
			r.Size = units.ByteCount(i)
		case "LocalTime":
			bit = 1 << 4
			i, ok = d.int64()
			r.LocalTime = time.Duration(i)
		case "ECN":
			bit = 1 << 5
			n, ok = d.uint(math.MaxUint8)
			r.ECN = packet.ECN(n)
		case "RTPTime":
			bit = 1 << 6
			n, ok = d.uint(math.MaxUint32)
			r.RTPTime = uint32(n)
		case "SSRC":
			bit = 1 << 7
			n, ok = d.uint(math.MaxUint32)
			r.SSRC = uint32(n)
		case "Marker":
			bit = 1 << 8
			r.Marker, ok = d.bool()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if done, ok := d.sep('}'); done || !ok {
			return ok
		}
	}
}

// tbs appends a JSON array of telemetry.TBRecord objects (or null) to dst.
func (d *fastReader) tbs(dst []telemetry.TBRecord) ([]telemetry.TBRecord, bool) {
	if d.lit("null") {
		return dst, true
	}
	empty, ok := d.open('[', ']')
	if !ok || empty {
		return dst, ok
	}
	for {
		dst = append(dst, telemetry.TBRecord{})
		if !d.tb(&dst[len(dst)-1]) {
			return dst, false
		}
		if done, ok := d.sep(']'); done || !ok {
			return dst, ok
		}
	}
}

// tb parses one telemetry.TBRecord object into the zero value r points at.
func (d *fastReader) tb(r *telemetry.TBRecord) bool {
	empty, ok := d.open('{', '}')
	if !ok || empty {
		return ok
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		var bit uint
		var n uint64
		var i int64
		switch string(key) {
		case "TBID":
			bit = 1 << 0
			r.TBID, ok = d.uint(math.MaxUint64)
		case "UE":
			bit = 1 << 1
			n, ok = d.uint(math.MaxUint32)
			r.UE = uint32(n)
		case "At":
			bit = 1 << 2
			i, ok = d.int64()
			r.At = time.Duration(i)
		case "TBS":
			bit = 1 << 3
			i, ok = d.int64()
			r.TBS = units.ByteCount(i)
		case "UsedBytes":
			bit = 1 << 4
			i, ok = d.int64()
			r.UsedBytes = units.ByteCount(i)
		case "Grant":
			bit = 1 << 5
			n, ok = d.uint(math.MaxUint8)
			r.Grant = telemetry.GrantKind(n)
		case "HARQRound":
			bit = 1 << 6
			i, ok = d.int64()
			r.HARQRound = int(i)
			ok = ok && int64(r.HARQRound) == i
		case "Failed":
			bit = 1 << 7
			r.Failed, ok = d.bool()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if done, ok := d.sep('}'); done || !ok {
			return ok
		}
	}
}
