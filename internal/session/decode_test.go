package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/packet"
	"athena/internal/scenario"
)

// realStream taps one UE's feed off a short simulated call: the batches a
// loadgen or a cell-site tap would POST.
var realStream = sync.OnceValue(func() scenario.SessionStream {
	top := scenario.NewTopology(2)
	top.Seed = 1
	top.Duration = 2 * time.Second
	return scenario.RunTopology(top).SessionStreams()[0]
})

// realBatches encodes the stream's 100 ms chunks exactly as a feeder does.
func realBatches(tb testing.TB) [][]byte {
	tb.Helper()
	ss := realStream()
	var out [][]byte
	for _, ch := range ss.Chunks(100 * time.Millisecond) {
		enc, err := json.Marshal(Batch{Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// realBatch is the stream's fullest batch that carries all three record
// kinds.
func realBatch(tb testing.TB) []byte {
	tb.Helper()
	var best []byte
	for _, enc := range realBatches(tb) {
		var b Batch
		if err := unmarshalBatchStd(enc, &b); err != nil {
			tb.Fatal(err)
		}
		if len(b.Sender) > 0 && len(b.Core) > 0 && len(b.TBs) > 0 && len(enc) > len(best) {
			best = enc
		}
	}
	if best == nil {
		tb.Fatal("no batch with sender, core and TB records in the tapped stream")
	}
	return best
}

const (
	oneRecord = `{"Kind":2,"Flow":3,"Seq":4,"Size":1200,"LocalTime":5000000,"ECN":1,"RTPTime":90000,"SSRC":4294967295,"Marker":true}`
	oneTB     = `{"TBID":18446744073709551615,"UE":1,"At":2500000,"TBS":1500,"UsedBytes":1200,"Grant":2,"HARQRound":1,"Failed":true}`
	// The same two objects in the older wire form, which also carried the
	// simulator's packet identities and three capture fields nothing read.
	oldRecord = `{"Point":1,"PacketID":7,"Kind":2,"Flow":3,"Seq":4,"Size":1200,"LocalTime":5000000,"ECN":1,"RTPTime":90000,"RTPSeq":65535,"SSRC":4294967295,"Marker":true,"MediaMeta":false}`
	oldTB     = `{"TBID":18446744073709551615,"UE":1,"At":2500000,"TBS":1500,"UsedBytes":1200,"Grant":2,"HARQRound":1,"Failed":true,"PacketIDs":[7,8,9]}`
)

// allKeys is a body with every top-level key, built from one record and
// one TB object.
func allKeys(record, tb string) string {
	return `{"sender":[` + record + `],"core":[` + record + `,` + record + `],"tbs":[` + tb + `],"advance_to_ns":1}`
}

// decodeCases is the seed corpus of FuzzDecodeBatch, each case also run
// as a unit test. fast says whether the single-pass decoder must take the
// input (true) or must decline it to encoding/json (false); either way
// the outcome must equal the stdlib's. Keys of the older wire form
// (Point, PacketID, RTPSeq, MediaMeta, PacketIDs) are outside the
// grammar: the fast path declines them and encoding/json drops them.
var decodeCases = []struct {
	name string
	data string
	fast bool
}{
	{"empty object", `{}`, true},
	{"advance only", `{"advance_to_ns":100000000}`, true},
	{"all keys", allKeys(oneRecord, oneTB), true},
	{"sender omitted", `{"core":[` + oneRecord + `],"tbs":[` + oneTB + `],"advance_to_ns":1}`, true},
	{"core omitted", `{"sender":[` + oneRecord + `],"tbs":[` + oneTB + `],"advance_to_ns":1}`, true},
	{"tbs omitted", `{"sender":[` + oneRecord + `],"core":[` + oneRecord + `],"advance_to_ns":1}`, true},
	{"advance omitted", `{"sender":[` + oneRecord + `]}`, true},
	{"keys reordered", `{"advance_to_ns":1,"tbs":[{"Failed":true,"TBID":2}],"sender":[{"Seq":4,"Kind":1}]}`, true},
	{"empty records", `{"sender":[{}],"tbs":[{}]}`, true},
	{"empty arrays", `{"sender":[],"core":[],"tbs":[]}`, true},
	{"null arrays", `{"sender":null,"core":null,"tbs":null,"advance_to_ns":3}`, true},
	{"PacketIDs null", `{"tbs":[{"TBID":1,"PacketIDs":null}]}`, false},
	{"PacketIDs empty", `{"tbs":[{"TBID":1,"PacketIDs":[]}]}`, false},
	{"negative LocalTime", `{"sender":[{"LocalTime":-5}]}`, true},
	{"int64 extremes", `{"sender":[{"Size":-9223372036854775808,"LocalTime":9223372036854775807}]}`, true},
	{"pretty printed", "\n{\n\t\"sender\" : [ {\n \"Kind\" : 1 ,\r\n \"Marker\" : true } ] ,\n \"tbs\" : [ { \"TBS\" : 1 , \"UE\" : 2 } ] ,\n \"advance_to_ns\" : 7\n}\n", true},

	{"duplicate sender", `{"sender":[` + oneRecord + `],"sender":[` + oneRecord + `]}`, false},
	{"duplicate record key", `{"sender":[{"Seq":1,"Seq":2}]}`, false},
	{"unknown key", `{"advance_to_ns":1,"padding":"x"}`, false},
	{"unknown record key", `{"sender":[{"Seq":1,"Extra":2}]}`, false},
	{"upper-case SENDER", `{"SENDER":[` + oneRecord + `]}`, false},
	{"lower-case point", `{"sender":[{"point":2}]}`, false},
	{"escaped key", `{"sender":[{"Ki\u006ed":2}]}`, false},
	{"Kelvin-sign key", `{"sender":[{"` + "\u212aind" + `":2}]}`, false},
	{"exponent", `{"advance_to_ns":1e3}`, false},
	{"fraction", `{"advance_to_ns":1.0}`, false},
	{"minus zero", `{"advance_to_ns":-0}`, false},
	{"leading zero", `{"advance_to_ns":01}`, false},
	{"Point past uint8", `{"sender":[{"Point":256}]}`, false},
	{"Kind past uint8", `{"sender":[{"Kind":256}]}`, false},
	{"RTPSeq past uint16", `{"sender":[{"RTPSeq":65536}]}`, false},
	{"SSRC past uint32", `{"sender":[{"SSRC":4294967296}]}`, false},
	{"PacketID past uint64", `{"sender":[{"PacketID":18446744073709551616}]}`, false},
	{"TBID past uint64", `{"tbs":[{"TBID":18446744073709551616}]}`, false},
	{"negative unsigned", `{"sender":[{"Seq":-1}]}`, false},
	{"LocalTime past int64", `{"sender":[{"LocalTime":9223372036854775808}]}`, false},
	{"LocalTime below int64", `{"sender":[{"LocalTime":-9223372036854775809}]}`, false},
	{"null number", `{"advance_to_ns":null}`, false},
	{"null bool", `{"sender":[{"Marker":null}]}`, false},
	{"null record", `{"sender":[null]}`, false},
	{"string number", `{"advance_to_ns":"5"}`, false},
	{"number bool", `{"sender":[{"Marker":1}]}`, false},
	{"object for array", `{"sender":{}}`, false},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"trailing comma", `{"advance_to_ns":1,}`, false},
	{"trailing comma in ids", `{"tbs":[{"PacketIDs":[1,]}]}`, false},
	{"doubled bracket", `{"tbs":[{"PacketIDs":[1]]}]}`, false},
	{"missing colon", `{"advance_to_ns" 1}`, false},
	{"truncated", `{"sender":[` + oneRecord[:40], false},
	{"empty input", ``, false},
	{"two batches", `{"advance_to_ns":1}{"advance_to_ns":2}`, false},
	{"trailing garbage", `{"advance_to_ns":1} x`, false},
	{"deep nesting", strings.Repeat("[", 10000), false},
	{"old wire form", allKeys(oldRecord, oldTB), false},
}

// noEmpty maps empty slices to nil, the one difference the differential
// check tolerates: the stdlib makes `[]` a non-nil empty slice, and a
// reused Batch keeps its emptied backing arrays.
func noEmpty(b Batch) Batch {
	if len(b.Sender) == 0 {
		b.Sender = nil
	}
	if len(b.Core) == 0 {
		b.Core = nil
	}
	if len(b.TBs) == 0 {
		b.TBs = nil
	}
	return b
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecodeAgrees holds every route to a decoded Batch equal to the
// encoding/json reference on data: accept/reject, value, error text. It
// returns whether the fast path took the input.
func checkDecodeAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	var want Batch
	wantErr := unmarshalBatchStd(data, &want)

	// The fast path alone: it may decline anything, but what it accepts
	// the stdlib must accept, with the same value.
	var fast Batch
	took := fast.decodeFast(data)
	if took {
		if wantErr != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v):\n%q", wantErr, data)
		}
		if !reflect.DeepEqual(noEmpty(fast), noEmpty(want)) {
			t.Fatalf("fast path decoded\n%+v\nencoding/json decoded\n%+v\nfrom %q", fast, want, data)
		}
	}

	// The handler's route (direct call into a reused Batch holding another
	// request's records) and the json.Unmarshal route (fresh Batch).
	var reused, viaStd Batch
	if err := reused.UnmarshalJSON([]byte(decodeCases[2].data)); err != nil || len(reused.TBs) == 0 {
		t.Fatalf("dirtying batch: %v", err)
	}
	routes := []struct {
		name string
		got  *Batch
		err  error
	}{
		{"UnmarshalJSON into a reused Batch", &reused, reused.UnmarshalJSON(data)},
		{"json.Unmarshal", &viaStd, json.Unmarshal(data, &viaStd)},
	}
	for _, r := range routes {
		if errText(r.err) != errText(wantErr) {
			t.Fatalf("%s: error %q, encoding/json reference %q, input %q", r.name, errText(r.err), errText(wantErr), data)
		}
		if !reflect.DeepEqual(noEmpty(*r.got), noEmpty(want)) {
			t.Fatalf("%s decoded\n%+v\nencoding/json reference\n%+v\nfrom %q", r.name, *r.got, want, data)
		}
	}
	return took
}

func TestDecodeBatchMatchesStdlib(t *testing.T) {
	for _, enc := range realBatches(t) {
		if !checkDecodeAgrees(t, enc) {
			t.Fatalf("fast path declined a json.Marshal-ed batch: %q", enc)
		}
	}
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if took := checkDecodeAgrees(t, []byte(c.data)); took != c.fast {
				t.Fatalf("fast path took the input = %v, want %v", took, c.fast)
			}
		})
	}
	// An older client's body decodes, through the fallback, to what the
	// same records in today's wire form decode to.
	decode := func(body string) Batch {
		var b Batch
		if err := b.UnmarshalJSON([]byte(body)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if got, want := decode(allKeys(oldRecord, oldTB)), decode(allKeys(oneRecord, oneTB)); !reflect.DeepEqual(got, want) {
		t.Fatalf("the older wire form decoded\n%+v\ntoday's decoded\n%+v", got, want)
	}
}

// The fallback's error text is the one clients saw before the fast path
// existed, type name included.
func TestDecodeBatchErrorNamesBatch(t *testing.T) {
	var b Batch
	err := json.Unmarshal([]byte(`{"sender":"x"}`), &b)
	const want = "json: cannot unmarshal string into Go struct field Batch.sender of type []packet.Record"
	if errText(err) != want {
		t.Fatalf("error %q, want %q", errText(err), want)
	}
}

// FuzzDecodeBatch is the differential fuzzer: for arbitrary bytes the
// fast path and encoding/json agree on accept/reject, on the decoded
// Batch and on the error text.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(realBatch(f))
	for _, c := range decodeCases {
		f.Add([]byte(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data)
	})
}

// FuzzHandlerBodies throws arbitrary bodies at the two decoding endpoints:
// whatever arrives, the handler neither panics nor blames itself (5xx).
func FuzzHandlerBodies(f *testing.F) {
	f.Add(realBatch(f))
	for _, c := range decodeCases {
		f.Add([]byte(c.data))
	}
	f.Add([]byte(`{"id":"fz","cell":"c","input":{"Flows":[1,2]},"flush_after_ns":5,"max_pending":-1}`))
	f.Add([]byte(`{"id":"fz"}{"id":"fz2"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		reg := NewRegistry()
		defer reg.CloseAll()
		h := reg.Handler()
		if _, err := reg.Create(Config{ID: "fuzz"}); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/sessions", "/v1/sessions/fuzz/records"} {
			if rr := post(h, path, body); rr.Code >= 500 {
				t.Fatalf("POST %s answered %d %s to body %q", path, rr.Code, rr.Body, body)
			}
		}
	})
}

// An absent key clears the reused slice: the second request of a pooled
// Batch must not re-feed the first one's records.
func TestPooledBatchNotRefed(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()
	do(t, h, "POST", "/v1/sessions", Config{ID: "pool"})
	in := synthFeedTB(40)
	// Several rounds on one goroutine: sync.Pool hands the scratch just
	// returned straight back (the race detector drops one Put in four).
	for i := 0; i < len(in.Sender); i += 10 {
		rr, body := do(t, h, "POST", "/v1/sessions/pool/records",
			Batch{Sender: in.Sender[i : i+10], Core: in.Core[i : i+10], TBs: in.TBs[i : i+10]})
		if rr.Code != 200 {
			t.Fatalf("feed: %d %s", rr.Code, body)
		}
		rr = post(h, "/v1/sessions/pool/records",
			[]byte(fmt.Sprintf(`{"advance_to_ns":%d}`, in.Sender[i+9].LocalTime)))
		var fr FeedResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &fr); err != nil || rr.Code != 200 {
			t.Fatalf("advance-only feed: %d %s", rr.Code, rr.Body)
		}
		if fr.Sender != 0 || fr.Core != 0 || fr.TBs != 0 {
			t.Fatalf("advance-only feed ingested %d/%d/%d records of the previous request", fr.Sender, fr.Core, fr.TBs)
		}
	}
	st, err := reg.Close("pool")
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Correlate(in).PacketsDigest(); st.Digest != want {
		t.Fatalf("digest %s != offline %s", st.Digest, want)
	}

	// The same property without the pool's say in it.
	var b Batch
	if err := b.UnmarshalJSON(realBatch(t)); err != nil || len(b.Sender) == 0 {
		t.Fatalf("real batch: %v, %d sender records", err, len(b.Sender))
	}
	if err := b.UnmarshalJSON([]byte(`{"advance_to_ns":1}`)); err != nil {
		t.Fatal(err)
	}
	if len(b.Sender)+len(b.Core)+len(b.TBs) != 0 || b.AdvanceTo != 1 {
		t.Fatalf("reused Batch kept %d/%d/%d records", len(b.Sender), len(b.Core), len(b.TBs))
	}
}

// Session.Feed retains nothing of the Batch: the handler returns it to a
// pool the moment Feed returns, so every record is scribbled over here
// and the stream must still digest-match the offline correlation.
func TestFeedRetainsNothingOfBatch(t *testing.T) {
	reg := NewRegistry()
	s, err := reg.Create(Config{ID: "borrow"})
	if err != nil {
		t.Fatal(err)
	}
	in := synthFeedTB(200)
	want := core.Correlate(in).PacketsDigest()
	var b Batch
	for i := 0; i < len(in.Sender); i += 20 {
		b.Sender = append(b.Sender[:0], in.Sender[i:i+20]...)
		b.Core = append(b.Core[:0], in.Core[i:i+20]...)
		b.TBs = append(b.TBs[:0], in.TBs[i:i+20]...)
		b.AdvanceTo = in.Sender[i+19].LocalTime
		if _, err := s.Feed(&b); err != nil {
			t.Fatal(err)
		}
		for j := range b.Sender {
			b.Sender[j].Seq, b.Sender[j].LocalTime = 1<<31, -1
			b.Core[j].Seq, b.Core[j].LocalTime = 1<<31, -1
			b.TBs[j].TBID, b.TBs[j].At, b.TBs[j].UsedBytes = 1<<63, -1, 0
		}
	}
	st, err := reg.Close("borrow")
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest != want || st.Feed.Emitted != 200 {
		t.Fatalf("digest %s (%d emitted) != offline %s: Feed kept a reference into the Batch", st.Digest, st.Feed.Emitted, want)
	}
}

// A scratch that served an oversized request is not pooled.
func TestFeedScratchPoolCap(t *testing.T) {
	var typical, bigBody, manyRecords feedScratch
	typical.body.Write(realBatch(t))
	if err := typical.batch.UnmarshalJSON(typical.body.Bytes()); err != nil {
		t.Fatal(err)
	}
	bigBody.body.Grow(maxPooledBodyBytes + 1)
	manyRecords.batch.Core = make([]packet.Record, 0, maxPooledRecords+1)
	if !typical.poolable() || bigBody.poolable() || manyRecords.poolable() {
		t.Fatalf("poolable: typical %v (want true), big body %v, many records %v (want false)",
			typical.poolable(), bigBody.poolable(), manyRecords.poolable())
	}
}

var benchSink Batch

// BenchmarkDecodeBatch compares the single-pass decoder (into a reused
// Batch, as the handler runs it) with the encoding/json decode it
// replaced on the canonical feed.
func BenchmarkDecodeBatch(b *testing.B) {
	batches := realBatches(b)
	var total int64
	for _, enc := range batches {
		total += int64(len(enc))
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, enc := range batches {
				if err := benchSink.UnmarshalJSON(enc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, enc := range batches {
				var bt Batch
				if err := unmarshalBatchStd(enc, &bt); err != nil {
					b.Fatal(err)
				}
				benchSink = bt
			}
		}
	})
}

// post sends raw bytes through the handler.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rr
}
