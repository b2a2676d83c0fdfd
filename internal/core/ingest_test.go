package core

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/telemetry"
	"athena/internal/units"
)

// rec is one captured record; sender and core captures record alike.
func rec(flow, seq uint32, kind packet.Kind, at time.Duration) packet.Record {
	return packet.Record{
		Kind: kind, Flow: flow, Seq: seq,
		Size: 1200, LocalTime: at,
	}
}

func TestIngestRejectsOutOfOrderSender(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.OnSenderRecord(rec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := lc.OnSenderRecord(rec(1, 1, packet.KindVideo, 5*time.Millisecond))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	if got := lc.Snapshot().BufferedSender; got != 1 {
		t.Fatalf("rejected record was ingested: buffered %d", got)
	}
}

func TestIngestRejectsOutOfOrderCore(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.OnCoreRecord(rec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := lc.OnCoreRecord(rec(1, 1, packet.KindVideo, 9*time.Millisecond))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	if got := lc.Snapshot().BufferedCore; got != 1 {
		t.Fatalf("rejected record was ingested: buffered %d", got)
	}
}

func TestIngestRejectsDuplicateSender(t *testing.T) {
	lc := NewLive(Input{}, nil)
	r := rec(1, 7, packet.KindVideo, 10*time.Millisecond)
	if err := lc.OnSenderRecord(r); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(r); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if got := lc.Snapshot().BufferedSender; got != 1 {
		t.Fatalf("duplicate was ingested: buffered %d", got)
	}
}

// Sequence-less kinds repeat (flow, seq, kind) legitimately: every NTP
// cross packet carries Seq 0. Distinct capture times must pass; only an
// identical timestamp is a replay.
func TestIngestAllowsRepeatedKeyAtDistinctTimes(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.OnSenderRecord(rec(99, 0, packet.KindCross, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(rec(99, 0, packet.KindCross, 20*time.Millisecond)); err != nil {
		t.Fatalf("repeated key at a later time must pass: %v", err)
	}
	if err := lc.OnSenderRecord(rec(99, 0, packet.KindCross, 20*time.Millisecond)); !errors.Is(err, ErrDuplicate) {
		t.Fatal("identical repeat must be a duplicate")
	}
}

// A full-drain trim resets the retained window, but replay detection must
// survive it: a replayed record at exactly the capture-head timestamp
// passes the order check and can only be caught by the duplicate index.
func TestIngestRejectsReplayAcrossDrain(t *testing.T) {
	lc := NewLive(Input{}, nil)
	lc.FlushAfter = 50 * time.Millisecond
	for i, at := range []time.Duration{10, 20, 30} {
		if err := lc.OnSenderRecord(rec(1, uint32(i), packet.KindVideo, at*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	head := rec(1, 3, packet.KindVideo, 40*time.Millisecond)
	if err := lc.OnSenderRecord(head); err != nil {
		t.Fatal(err)
	}
	if err := lc.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if snap := lc.Snapshot(); snap.Pending != 0 || snap.Trims == 0 {
		t.Fatalf("full drain expected before the replay: %+v", snap)
	}
	if err := lc.OnSenderRecord(head); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("head replay after drain: want ErrDuplicate, got %v", err)
	}
	if err := lc.OnSenderRecord(rec(1, 1, packet.KindVideo, 20*time.Millisecond)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("old replay after drain: want ErrOutOfOrder, got %v", err)
	}
	if err := lc.OnSenderRecord(rec(1, 4, packet.KindVideo, 50*time.Millisecond)); err != nil {
		t.Fatalf("fresh record after drain must pass: %v", err)
	}
}

// A mid-stream trim must not reopen the replay gap either: A and B share
// the capture-head timestamp, A resolves and is trimmed while B stays
// buffered, and a replayed A still passes the order check (its time
// equals the head). Accepting it would re-enter A in the FIFO behind B —
// a silently wrong attribution.
func TestIngestRejectsReplayOfTrimmedHeadRecord(t *testing.T) {
	lc := NewLive(Input{}, nil)
	a := rec(1, 1, packet.KindVideo, 10*time.Millisecond)
	a.Size = 100
	b := rec(1, 2, packet.KindVideo, 10*time.Millisecond)
	for _, r := range []packet.Record{a, b} {
		if err := lc.OnSenderRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.OnCoreRecord(rec(1, 1, packet.KindVideo, 13*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnTB(telemetry.TBRecord{At: 11 * time.Millisecond, TBID: 1, UE: 1, TBS: 100, UsedBytes: 100}); err != nil {
		t.Fatal(err)
	}
	if err := lc.Advance(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if snap := lc.Snapshot(); snap.Trims != 1 || snap.BufferedSender != 1 {
		t.Fatalf("A must be emitted and trimmed mid-stream before the replay: %+v", snap)
	}
	err := lc.OnSenderRecord(a)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("replay of trimmed head record: err=%v buffered=%d, want ErrDuplicate",
			err, lc.Snapshot().BufferedSender)
	}
}

// A burst of records sharing one capture timestamp must ingest at the
// per-record cost of an ordinary feed: the duplicate guard runs under the
// session lock, and a session's 64 Ki pending records fit in one feed.
// The check compares equal lengths — 64 Ki records at one timestamp
// against 64 Ki at distinct timestamps, each followed by an Advance that
// retires them — and counts the key slots probed: the lookups, inserts
// and deletes on the key index, counted inside its type, the only way to
// reach its map. A guard that is O(1) per record probes about as many
// per record on both feeds; one that re-probes the head run per record
// probes thousands of times as many on the burst.
//
// A scan of the head run written over Report.Packets itself touches
// neither map, so the counts cannot see it; the feeds are also timed,
// as a backstop against that, with a bound (10×) no load on the box
// reaches — such a scan takes about a hundred times as long.
// BenchmarkIngestSameTimestampBurst times the burst.
func TestIngestSameTimestampBurstLinear(t *testing.T) {
	const n = 64 << 10
	steps := [2]time.Duration{0, time.Microsecond} // burst, spread
	lcs := [2]*LiveCorrelator{NewLive(Input{}, nil), NewLive(Input{}, nil)}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for rep := 0; rep < 3; rep++ {
		for side, lc := range lcs {
			t0 := time.Now()
			feedRecords(t, lc, n, time.Duration(rep)*time.Second, steps[side])
			if rep > 0 { // the first feed only sizes the buffers
				best[side] = min(best[side], time.Since(t0))
			}
		}
	}
	var probes [2]int
	for side, lc := range lcs {
		probes[side] = lc.rep.byKey.probes
	}
	burst, spread := probes[0], probes[1]
	t.Logf("key slots probed per record: %.2f on the burst, %.2f spread; best feed %v against %v",
		float64(burst)/(3*n), float64(spread)/(3*n), best[0], best[1])
	if burst >= 2*spread {
		t.Errorf("64 Ki same-timestamp records probed %d key slots, %.2f× the %d of 64 Ki at distinct timestamps; want < 2×",
			burst, float64(burst)/float64(spread), spread)
	}
	if best[0] >= 10*best[1] {
		t.Errorf("64 Ki same-timestamp records took %v, %.1f× the %v of 64 Ki at distinct timestamps; want < 10×",
			best[0], float64(best[0])/float64(best[1]), best[1])
	}
}

// feedRecords feeds n sender records from base, step apart, then
// advances a second past base.
func feedRecords(tb testing.TB, lc *LiveCorrelator, n int, base, step time.Duration) {
	for i := 0; i < n; i++ {
		if err := lc.OnSenderRecord(rec(1, uint32(i), packet.KindVideo, base+time.Duration(i)*step)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := lc.Advance(base + time.Second); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkIngestSameTimestampBurst feeds 64 Ki sender records at one
// capture timestamp per iteration.
func BenchmarkIngestSameTimestampBurst(b *testing.B) {
	lc := NewLive(Input{}, nil)
	for i := 0; i < b.N; i++ {
		feedRecords(b, lc, 64<<10, time.Duration(i)*time.Second, 0)
	}
}

// Drain must flush every pending packet regardless of where the feeder
// left the clock — including feeds that never advanced at all and use
// absolute (epoch-like) capture times far ahead of the zero clock.
func TestDrainFlushesWithoutAdvance(t *testing.T) {
	const base = 1700000000 * time.Second
	var views int
	lc := NewLive(Input{}, func(PacketView) { views++ })
	for i := 0; i < 20; i++ {
		at := base + time.Duration(i)*10*time.Millisecond
		if err := lc.OnSenderRecord(rec(1, uint32(i), packet.KindVideo, at)); err != nil {
			t.Fatal(err)
		}
		if err := lc.OnCoreRecord(rec(1, uint32(i), packet.KindVideo, at+3*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.Drain(); err != nil {
		t.Fatal(err)
	}
	if snap := lc.Snapshot(); snap.Pending != 0 || views != 20 {
		t.Fatalf("drain left %d pending, emitted %d of 20 views", snap.Pending, views)
	}
}

func TestIngestRejectsUncoveredFlow(t *testing.T) {
	lc := NewLive(Input{Flows: []uint32{1, 2}}, nil)
	if err := lc.OnSenderRecord(rec(1, 0, packet.KindVideo, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(rec(3, 0, packet.KindVideo, 2*time.Millisecond)); !errors.Is(err, ErrFlowNotCovered) {
		t.Fatalf("want ErrFlowNotCovered, got %v", err)
	}
	if err := lc.OnCoreRecord(rec(3, 0, packet.KindVideo, 2*time.Millisecond)); !errors.Is(err, ErrFlowNotCovered) {
		t.Fatalf("want ErrFlowNotCovered on core stream, got %v", err)
	}
	if snap := lc.Snapshot(); snap.BufferedSender != 1 || snap.BufferedCore != 0 {
		t.Fatalf("uncovered records ingested: %+v", snap)
	}
}

func TestIngestRejectsClockRegression(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.Advance(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := lc.Advance(50 * time.Millisecond); !errors.Is(err, ErrTimeRegression) {
		t.Fatalf("want ErrTimeRegression, got %v", err)
	}
	if err := lc.Advance(100 * time.Millisecond); err != nil {
		t.Fatalf("equal clock must pass: %v", err)
	}
}

// A rejected record must leave the session exactly as it was: the feed
// continues and the emitted views are those of a clean feed.
func TestIngestErrorLeavesFeedUsable(t *testing.T) {
	var views []PacketView
	lc := NewLive(Input{}, func(v PacketView) { views = append(views, v.Clone()) })
	lc.FlushAfter = 50 * time.Millisecond
	if err := lc.OnSenderRecord(rec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(rec(1, 9, packet.KindVideo, 5*time.Millisecond)); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if err := lc.OnSenderRecord(rec(1, 1, packet.KindVideo, 20*time.Millisecond)); err != nil {
		t.Fatalf("feed must continue after a rejection: %v", err)
	}
	if err := lc.OnCoreRecord(rec(1, 0, packet.KindVideo, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnCoreRecord(rec(1, 1, packet.KindVideo, 25*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("emitted %d views, want 2", len(views))
	}
	for i, v := range views {
		if v.Seq != uint32(i) || !v.SeenCore {
			t.Fatalf("view %d corrupted by rejected record: %+v", i, v)
		}
	}
}

func TestIngestSnapshotProgress(t *testing.T) {
	lc := NewLive(Input{}, nil)
	lc.FlushAfter = 50 * time.Millisecond
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		if err := lc.OnSenderRecord(rec(1, uint32(i), packet.KindVideo, at)); err != nil {
			t.Fatal(err)
		}
		if err := lc.OnCoreRecord(rec(1, uint32(i), packet.KindVideo, at+time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if snap := lc.Snapshot(); snap.Emitted != 0 || snap.Pending != 10 {
		t.Fatalf("pre-advance snapshot wrong: %+v", snap)
	}
	if err := lc.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := lc.Snapshot()
	if snap.Emitted != 10 || snap.Pending != 0 {
		t.Fatalf("post-advance snapshot wrong: %+v", snap)
	}
	if snap.Trims == 0 {
		t.Fatal("full drain did not count as a trim")
	}
	if snap.Advanced != 10*time.Second {
		t.Fatalf("advanced clock not tracked: %v", snap.Advanced)
	}
}

// replayChunked streams a batch Input into a fresh live correlator with
// zero inter-stream skew — at each step every record captured by the new
// clock is delivered, per-stream order preserved — and returns the
// emitted views. step(i) is the i-th clock increment, the fuzzed degree
// of freedom: it controls how records interleave across Advance windows
// (and therefore which trim/flush paths run) without ever violating the
// feed contract. After every Advance the incremental state must equal a
// re-derive from position 0 over the same buffers.
func replayChunked(t testing.TB, in Input, step func(i int) time.Duration) (views []PacketView, st replayStats) {
	t.Helper()
	return replay(t, in, step, true)
}

// replay is replayChunked, with the re-derive after every Advance only
// when rederive is set.
func replay(t testing.TB, in Input, step func(i int) time.Duration, rederive bool) (views []PacketView, st replayStats) {
	t.Helper()
	cfg := in
	cfg.Sender, cfg.Core, cfg.TBs = nil, nil, nil
	var kept map[uint64]bool
	lc := NewLive(cfg, func(v PacketView) {
		for _, id := range v.TBIDs {
			st.reused = st.reused || kept[id]
		}
		views = append(views, v.Clone())
	})
	si, ci, ti := 0, 0, 0
	now := time.Duration(0)
	var fed tbLog
	advance := func(now time.Duration) {
		buffered := len(lc.sizes)
		if lc.Pending() > 0 && lc.dirty < lc.base+len(lc.ckpt) {
			st.rewinds++
		}
		if err := lc.Advance(now); err != nil {
			t.Fatalf("advance %v: %v", now, err)
		}
		if rederive {
			assertRederives(t, lc, &fed)
		}
		if buffered > 0 && len(lc.sizes) == 0 {
			// A full drain: note the TBs it kept that carried its packets.
			for _, v := range views[len(views)-buffered:] {
				for _, id := range v.TBIDs {
					if _, ok := lc.procIdx[id]; ok {
						if kept == nil {
							kept = make(map[uint64]bool)
						}
						kept[id] = true
					}
				}
			}
		}
	}
	for i := 0; si < len(in.Sender) || ci < len(in.Core) || ti < len(in.TBs); i++ {
		now += step(i)
		for si < len(in.Sender) && in.Sender[si].LocalTime <= now {
			if err := lc.OnSenderRecord(in.Sender[si]); err != nil {
				t.Fatalf("sender %d: %v", si, err)
			}
			si++
		}
		for ci < len(in.Core) && in.Core[ci].LocalTime <= now {
			if err := lc.OnCoreRecord(in.Core[ci]); err != nil {
				t.Fatalf("core %d: %v", ci, err)
			}
			ci++
		}
		// TBs are delivered in slice order (HARQ retries trail their At by
		// design), gated on the head's timestamp; OnTB is order-free.
		for ti < len(in.TBs) && in.TBs[ti].At <= now {
			if err := fed.feed(lc, in.TBs[ti]); err != nil {
				t.Fatalf("tb %d: %v", ti, err)
			}
			ti++
		}
		advance(now)
	}
	advance(now + 30*time.Second)
	st.walked, st.refused = lc.walked, lc.Snapshot().RefusedJoins
	return views, st
}

// replayStats sums up what a chunked replay made the matcher do.
//   - rewinds counts the Advances that resumed it before the position it
//     had walked;
//   - walked counts the process positions it walked;
//   - reused reports that a packet was matched to a TB a full drain kept
//     after that TB had carried drained packets. The next walk starts the
//     kept TB at its full budget where a one-shot feed has spent it, so
//     only then may emission differ from Correlate (ROADMAP item 1);
//   - refused counts the core sightings the feed refused a join.
type replayStats struct {
	rewinds, walked int
	reused          bool
	refused         int64
}

// tbLog is a test's log of the TB attempts it fed one correlator, each
// numbered as the correlator numbers its arrivals.
type tbLog []tbAttempt

// feed passes r to lc, logging it unless the log is nil.
func (l *tbLog) feed(lc *LiveCorrelator, r telemetry.TBRecord) error {
	if l != nil {
		*l = append(*l, tbAttempt{r.TBID, r.At, int64(r.UsedBytes), lc.arrivals, int32(r.HARQRound), r.Grant, r.Failed})
	}
	return lc.OnTB(r)
}

// assertRederives checks a correlator fed incrementally against a
// one-shot feed of the records it retains: Correlate's feed of the
// retained sender, core and TB records — one walk of the matcher from
// position 0 on a fresh correlator — must reproduce every view, the
// drain state, the key index and the TB-process table. The retained TB
// records are the attempts in fed whose process is in the table and
// began no later than they did; fed is cut down to them, as an attempt
// outside that set never re-enters it.
func assertRederives(t testing.TB, lc *LiveCorrelator, fed *tbLog) {
	t.Helper()
	in := lc.in
	for i, v := range lc.rep.Packets {
		in.Sender = append(in.Sender, packet.Record{
			Flow: v.Flow, Seq: v.Seq, Kind: v.Kind, Size: units.ByteCount(lc.sizes[i]),
			LocalTime: v.SentAt + lc.senderOff, SSRC: v.SSRC, RTPTime: v.RTPTime, Marker: v.Marker,
		})
	}
	var coreKeys []uint64
	for _, c := range lc.core.items() {
		if lc.coreLive(&c) {
			// A sighting keeps no kind: any sequenced one joins alike.
			in.Core = append(in.Core, packet.Record{
				Flow: uint32(c.key >> 32), Seq: uint32(c.key), Kind: packet.KindVideo, LocalTime: c.at + lc.coreOff,
			})
			coreKeys = append(coreKeys, c.key)
		}
	}
	kept := (*fed)[:0]
	for _, a := range *fed {
		if j, ok := lc.procIdx[a.id]; ok && a.seq >= lc.procs[j].seen {
			kept = append(kept, a)
			in.TBs = append(in.TBs, telemetry.TBRecord{
				TBID: a.id, At: a.at, UsedBytes: units.ByteCount(a.used),
				Grant: a.grant, HARQRound: int(a.round), Failed: a.failed,
			})
		}
	}
	*fed = kept
	if len(in.Core) != lc.nCore || len(in.TBs) != lc.nTBs {
		t.Fatalf("retained %d core / %d TB records, counted %d / %d", len(in.Core), len(in.TBs), lc.nCore, lc.nTBs)
	}
	re := feedOnce(in)
	want := re.rep
	got := lc.rep.Packets
	if len(got) != len(want.Packets) {
		t.Fatalf("%d views, re-derive has %d", len(got), len(want.Packets))
	}
	for i := range got {
		g, w := got[i], want.Packets[i]
		if !slices.Equal(g.TBIDs, w.TBIDs) || string(appendViewLine(nil, g)) != string(appendViewLine(nil, w)) {
			t.Fatalf("view %d diverges from the re-derive:\nincremental %s\nre-derived  %s",
				i, appendViewLine(nil, g), appendViewLine(nil, w))
		}
		if lc.fifoLeft[i] != re.fifoLeft[i] {
			t.Fatalf("view %d: %d bytes undrained, re-derive has %d", i, lc.fifoLeft[i], re.fifoLeft[i])
		}
	}
	// The re-derive extends the retained numbers afresh, so they trail the
	// feed's by whole wraps, alike for every identity of a flow. Views at
	// one position and core sightings at one place in the log pair the
	// two feeds' identities and give each flow's wraps.
	wraps := make(map[uint32]uint32)
	pair := func(got, want uint64) {
		flow, d := uint32(got>>32), uint32(got)-uint32(want)
		if w, ok := wraps[flow]; uint32(want>>32) != flow || uint16(d) != 0 || ok && w != d {
			t.Fatalf("identity %#x pairs with the re-derive's %#x (flow %d trails by %#x)", got, want, flow, w)
		}
		wraps[flow] = d
	}
	wantKeys := make([]uint64, len(got))
	for k, s := range want.byKey.m {
		if s.view != noView {
			wantKeys[s.view] = k
		}
	}
	for k, s := range lc.rep.byKey.m {
		if s.view != noView {
			pair(k, wantKeys[s.view-lc.shift])
		}
	}
	if len(re.core.items()) != len(coreKeys) {
		t.Fatalf("re-derive logged %d of %d core sightings", len(re.core.items()), len(coreKeys))
	}
	for i, c := range re.core.items() {
		pair(coreKeys[i], c.key)
	}
	if len(lc.rep.byKey.m) != len(want.byKey.m) {
		t.Fatalf("key index holds %d keys, re-derive %d", len(lc.rep.byKey.m), len(want.byKey.m))
	}
	for k, s := range lc.rep.byKey.m {
		flow := uint32(k >> 32)
		w, ok := want.byKey.m[key(flow, uint32(k)-wraps[flow])]
		if s.view != noView {
			s.view -= lc.shift
		}
		if !ok || s != w {
			t.Fatalf("key %#x is %+v, re-derive has %+v (present %v)", k, s, w, ok)
		}
	}
	var live, rederived []tbProcess
	for _, p := range lc.procs {
		if !p.dead {
			p.seen = 0
			live = append(live, p)
		}
	}
	for _, p := range re.procs {
		p.seen = 0
		rederived = append(rederived, p)
	}
	if !slices.Equal(live, rederived) {
		t.Fatalf("TB-process table diverges from the re-derive:\nincremental %+v\nre-derived  %+v", live, rederived)
	}
	if len(lc.procIdx) != len(live) {
		t.Fatalf("%d processes indexed, %d in the table", len(lc.procIdx), len(live))
	}
	for id, j := range lc.procIdx {
		if lc.procs[j].id != id {
			t.Fatalf("procIdx[%d] = %d, but that position holds TB %d", id, j, lc.procs[j].id)
		}
	}
}

// assertStreamMatchesBatch checks the ISSUE's correctness bar at the core
// layer: the streamed emission must digest-match the offline batch
// correlation of the same input, view for view.
func assertStreamMatchesBatch(t testing.TB, in Input, views []PacketView) {
	t.Helper()
	if len(views) != len(in.Sender) {
		t.Fatalf("emitted %d views for %d sent packets", len(views), len(in.Sender))
	}
	vh := NewViewHasher()
	for _, v := range views {
		vh.Add(v)
	}
	batch := Correlate(in)
	if got, want := vh.Sum(), batch.PacketsDigest(); got != want {
		// Locate the first divergence for a debuggable failure.
		for i, v := range views {
			bv := batch.Packets[i]
			if string(appendViewLine(nil, v)) != string(appendViewLine(nil, bv)) {
				t.Fatalf("view %d diverges:\nlive  %s\nbatch %s",
					i, appendViewLine(nil, v), appendViewLine(nil, bv))
			}
		}
		t.Fatalf("digest mismatch without per-view divergence: %s vs %s", got, want)
	}
}

// TestLiveChunkedReplayMatchesBatchDigest is the deterministic core of the
// fuzz target: several seeds and pathological step patterns, each checked
// for exact digest equality between streamed and batch attribution.
func TestLiveChunkedReplayMatchesBatchDigest(t *testing.T) {
	steps := map[string]func(i int) time.Duration{
		"fine":    func(int) time.Duration { return 700 * time.Microsecond },
		"coarse":  func(int) time.Duration { return 40 * time.Millisecond },
		"bursty":  func(i int) time.Duration { return time.Duration(1+(i*i)%97) * time.Millisecond },
		"ragged":  func(i int) time.Duration { return time.Duration(1+(i*7)%13) * time.Millisecond },
		"onestep": func(int) time.Duration { return 10 * time.Minute },
	}
	for name, step := range steps {
		for _, seed := range []int64{1, 42, 7777} {
			in := synthInput(600, 4, seed)
			views, _ := replayChunked(t, in, step)
			t.Run(name, func(t *testing.T) { assertStreamMatchesBatch(t, in, views) })
		}
	}
}

// TestSequenceWrapKeepsIdentity feeds flows whose 16-bit sequence
// numbers wrap. Each capture point extends them, so a packet sent after
// a wrap is a new identity, not its namesake one wrap earlier:
//   - one-flow: 70 000 packets on one flow, and those sent after the wrap
//     never reach the core. Every earlier packet keeps its own 20 ms
//     sighting, no join is refused (a namesake's sighting would precede
//     the send), and the 100 ms live replay digests as Correlate does;
//   - shared-counter: a 20-minute call at M1's ~243 packets/s, video and
//     audio numbered by one counter that wraps four times, each packet
//     carried by a TB of its own. Every packet joins its own sighting
//     with no negative uplink delay, and the live replay, checked without
//     the per-step re-derive, digests as Correlate does;
//   - match-accuracy: the simulator's truth joins each packet past a wrap
//     to its own PacketID, so an exact matcher scores 1.0.
func TestSequenceWrapKeepsIdentity(t *testing.T) {
	const wrap = 1 << 16
	tick := func(int) time.Duration { return 100 * time.Millisecond }
	t.Run("one-flow", func(t *testing.T) {
		const n, gap, delay = 70_000, 10 * time.Microsecond, 20 * time.Millisecond
		in := Input{SlotDuration: 500 * time.Microsecond}
		for i := range n {
			at := time.Duration(i) * gap
			in.Sender = append(in.Sender, rec(1, uint32(i%wrap), packet.KindVideo, at))
			if i < wrap {
				in.Core = append(in.Core, rec(1, uint32(i), packet.KindVideo, at+delay))
			}
		}
		rep := Correlate(in)
		for i, v := range rep.Packets {
			if seen := i < wrap; v.SeenCore != seen || seen && v.ULDelay != delay {
				t.Fatalf("packet %d (%d/%d sent at %v): seen %v with uplink delay %v, want seen %v after %v",
					i, v.Flow, v.Seq, v.SentAt, v.SeenCore, v.ULDelay, seen, delay)
			}
		}
		views, st := replayChunked(t, in, tick)
		assertStreamMatchesBatch(t, in, views)
		if rep.RefusedJoins != 0 || st.refused != 0 {
			t.Errorf("refused %d joins in Correlate, %d live; want none", rep.RefusedJoins, st.refused)
		}
	})
	t.Run("shared-counter", func(t *testing.T) {
		const delay = 5 * time.Millisecond
		in := sharedCounterCall(20*60*243, delay)
		rep := Correlate(in)
		views, st := replay(t, in, tick, false)
		assertStreamMatchesBatch(t, in, views)
		for i, v := range rep.Packets {
			if !v.SeenCore || v.ULDelay != delay {
				t.Fatalf("packet %d (%d/%d sent at %v): seen %v with uplink delay %v, want %v",
					i, v.Flow, v.Seq, v.SentAt, v.SeenCore, v.ULDelay, delay)
			}
		}
		if rep.RefusedJoins != 0 || st.refused != 0 {
			t.Errorf("refused %d joins in Correlate, %d live; want none", rep.RefusedJoins, st.refused)
		}
	})
	t.Run("match-accuracy", func(t *testing.T) {
		in := sharedCounterCall(wrap+5000, 5*time.Millisecond)
		if acc := Correlate(in).MatchAccuracy(in.Sender, in.TBs); acc != 1 {
			t.Fatalf("match accuracy %.4f past a wrap, want 1", acc)
		}
	})
}

// sharedCounterCall sends n packets at M1's ~243 packets/s, every fifth
// one audio (flow 2) and the rest video (flow 1), numbered by one 16-bit
// counter. Each is carried whole by a TB of its own 1 ms after its send
// and reaches the core delay after it.
func sharedCounterCall(n int, delay time.Duration) Input {
	const gap = time.Second / 243
	in := Input{SlotDuration: 500 * time.Microsecond}
	in.Sender, in.Core = make([]packet.Record, 0, n), make([]packet.Record, 0, n)
	in.TBs = make([]telemetry.TBRecord, 0, n)
	for i := range n {
		at := time.Duration(i) * gap
		r := rec(1, uint32(i%(1<<16)), packet.KindVideo, at)
		if i%5 == 4 {
			r.Flow, r.Kind, r.Size = 2, packet.KindAudio, 120
		}
		r.PacketID = uint64(i + 1)
		in.Sender = append(in.Sender, r)
		c := r
		c.LocalTime = at + delay
		in.Core = append(in.Core, c)
		in.TBs = append(in.TBs, telemetry.TBRecord{
			TBID: uint64(i + 1), UE: 1, At: at + time.Millisecond, TBS: r.Size, UsedBytes: r.Size,
			Grant: telemetry.GrantProactive, PacketIDs: []uint64{r.PacketID},
		})
	}
	return in
}

// acrossWrap renumbers each flow's sequence numbers to start half the
// flow's packets below 65 536, so every flow wraps mid-feed. It leaves
// in's captures untouched.
func acrossWrap(in Input) Input {
	count := make(map[uint32]uint32)
	for _, r := range in.Sender {
		count[r.Flow]++
	}
	renumber := func(rs []packet.Record) []packet.Record {
		rs = slices.Clone(rs)
		for i := range rs {
			rs[i].Seq = uint32(uint16(rs[i].Seq - count[rs[i].Flow]/2))
		}
		return rs
	}
	in.Sender, in.Core = renumber(in.Sender), renumber(in.Core)
	return in
}

// FuzzLiveFeedOrder fuzzes the delivery chunking of a synthetic session:
// each fuzz byte is a clock increment, so the corpus explores adversarial
// interleavings of sender/core/TB delivery against Advance (including
// long stalls that force horizon flushes and mid-stream trims). Every
// flow's sequence numbers wrap mid-feed (acrossWrap). It
// compares the incremental and one-shot feeds of the one correlator:
// after every Advance the incremental state must equal a one-shot feed
// of the retained records, and the emitted views must digest-match
// Correlate's one-shot feed of the whole session — unless a packet took
// budget from a TB a full drain kept after it carried drained packets
// (ROADMAP item 1), where every packet must still be emitted once.
func FuzzLiveFeedOrder(f *testing.F) {
	f.Add(int64(1), []byte{3, 18, 1, 1, 250, 2, 9})
	f.Add(int64(42), []byte{1})
	f.Add(int64(99), []byte{200, 200, 200})
	f.Add(int64(-203), []byte("x")) // 1 ms steps: a kept TB's budget is reused
	f.Fuzz(func(t *testing.T, seed int64, chunks []byte) {
		if len(chunks) == 0 {
			chunks = []byte{5}
		}
		if len(chunks) > 256 {
			chunks = chunks[:256]
		}
		in := acrossWrap(synthInput(300, 3, seed))
		step := func(i int) time.Duration {
			ms := int(chunks[i%len(chunks)])%120 + 1
			return time.Duration(ms) * time.Millisecond
		}
		views, st := replayChunked(t, in, step)
		if st.reused {
			if len(views) != len(in.Sender) {
				t.Fatalf("emitted %d views for %d sent packets", len(views), len(in.Sender))
			}
			return
		}
		assertStreamMatchesBatch(t, in, views)
	})
}

// TestLiveRederivesLateEvidence feeds evidence that reaches the
// correlator after the matcher walked past its position, so Advance must
// resume early; replayChunked checks every step against the re-derive.
//   - handover-merge: two cells' telemetry merged with the target cell's
//     arriving late, inserting processes before the walked position;
//   - late-harq-retry: retransmissions delivered long after the settle
//     window, flipping abandoned processes back to carrying bytes;
//   - retry-first: a retry delivered before its failed first attempt,
//     which then moves the process earlier into a tie with another
//     cell's empty grant in the same slot (first sighting breaks it);
//   - sender-ahead: a sender clock 20 ms ahead, so sender records trail
//     the TBs that carry them, every packet resolves on arrival and each
//     Advance fully drains: the next walk starts over the kept TBs;
//   - clocks-ahead: sender and core clocks 20 and 30 ms ahead, so the
//     FIFO keeps running dry while packets wait for their core sightings.
//
// None of these feeds promises emission equal to batch correlation.
func TestLiveRederivesLateEvidence(t *testing.T) {
	const other = 1 << 48 // a second cell's TBID namespace
	for _, tc := range []struct {
		name string
		feed func(in Input) Input
	}{
		{"handover-merge", func(in Input) Input {
			return deliverTBs(in, func(tb telemetry.TBRecord) time.Duration {
				if tb.TBID%3 == 0 {
					return tb.At + 12*time.Millisecond
				}
				return tb.At
			})
		}},
		{"late-harq-retry", func(in Input) Input {
			return deliverTBs(in, func(tb telemetry.TBRecord) time.Duration {
				if tb.HARQRound > 0 {
					return tb.At + 30*time.Millisecond
				}
				return tb.At
			})
		}},
		{"retry-first", func(in Input) Input {
			for _, tb := range in.TBs {
				in.TBs = append(in.TBs, telemetry.TBRecord{TBID: other | tb.TBID, UE: 1, At: tb.At, TBS: tb.TBS})
			}
			return deliverTBs(in, func(tb telemetry.TBRecord) time.Duration {
				switch {
				case tb.TBID&other != 0:
					return tb.At + 11*time.Millisecond
				case tb.Failed && tb.HARQRound == 0:
					return tb.At + 12*time.Millisecond
				}
				return tb.At
			})
		}},
		{"sender-ahead", func(in Input) Input {
			in.Offsets = map[packet.Point]time.Duration{packet.PointSender: 20 * time.Millisecond}
			in.Sender = slices.Clone(in.Sender)
			for i := range in.Sender {
				in.Sender[i].LocalTime += in.Offsets[packet.PointSender]
			}
			return in
		}},
		{"clocks-ahead", func(in Input) Input {
			in.Offsets = map[packet.Point]time.Duration{
				packet.PointSender: 20 * time.Millisecond,
				packet.PointCore:   30 * time.Millisecond,
			}
			in.Sender, in.Core = slices.Clone(in.Sender), slices.Clone(in.Core)
			for i := range in.Sender {
				in.Sender[i].LocalTime += in.Offsets[packet.PointSender]
				in.Core[i].LocalTime += in.Offsets[packet.PointCore]
			}
			return in
		}},
	} {
		for _, step := range []time.Duration{5 * time.Millisecond, 40 * time.Millisecond} {
			in := tc.feed(synthInput(600, 4, 3))
			_, st := replayChunked(t, in, func(int) time.Duration { return step })
			if st.rewinds == 0 && tc.name != "sender-ahead" {
				t.Errorf("%s at %v: no Advance resumed before the walked position", tc.name, step)
			}
		}
	}
}

// TestLiveReplayCostIndependentOfTick holds the live matcher's work per
// record flat across feed batch sizes: an Advance walks the processes its
// new evidence can change, not the retained window, so replaying a 4 s
// session with HARQ retransmissions in 10 ms batches may walk at most
// twice the process positions of the 100 ms replay. Re-correlating the
// window on every Advance walks each process once per batch it stays in,
// about ten times as many at the finer tick.
func TestLiveReplayCostIndependentOfTick(t *testing.T) {
	in := runBed(t, ran.SchedCombined, 0.1, clock.Perfect("s"), clock.Perfect("c"), 4*time.Second).input(nil)
	walked := func(tick time.Duration) int {
		_, st := replayChunked(t, in, func(int) time.Duration { return tick })
		return st.walked
	}
	fine, coarse := walked(10*time.Millisecond), walked(100*time.Millisecond)
	if fine >= 2*coarse {
		t.Fatalf("10 ms batches walked %d process positions, %.1f× the %d of 100 ms batches; want < 2×",
			fine, float64(fine)/float64(coarse), coarse)
	}
	t.Logf("%d TB attempts; walked %d positions at 10 ms, %d at 100 ms", len(in.TBs), fine, coarse)
}

// deliverTBs reorders the telemetry by due time. replayChunked delivers
// it in slice order, so an attempt arrives late without its timestamp
// changing.
func deliverTBs(in Input, due func(telemetry.TBRecord) time.Duration) Input {
	in.TBs = slices.Clone(in.TBs)
	sort.SliceStable(in.TBs, func(i, j int) bool { return due(in.TBs[i]) < due(in.TBs[j]) })
	return in
}

// TestIngestTBOrderFree pins the documented TB contract: merged multi-cell
// telemetry interleaves in time, so feeding TBs in a different (but
// causally plausible) order must not change the attribution digest.
func TestIngestTBOrderFree(t *testing.T) {
	in := synthInput(400, 4, 5)
	base, _ := replayChunked(t, in, func(int) time.Duration { return 5 * time.Millisecond })

	shuffled := in
	shuffled.TBs = append([]telemetry.TBRecord(nil), in.TBs...)
	// A stable sort by At reorders HARQ retries relative to later initial
	// attempts — exactly how a time-merged multi-cell stream delivers them.
	sort.SliceStable(shuffled.TBs, func(i, j int) bool { return shuffled.TBs[i].At < shuffled.TBs[j].At })
	alt, _ := replayChunked(t, shuffled, func(int) time.Duration { return 5 * time.Millisecond })

	sum := func(vs []PacketView) string {
		vh := NewViewHasher()
		for _, v := range vs {
			vh.Add(v)
		}
		return vh.Sum()
	}
	if sum(base) != sum(alt) {
		t.Fatal("TB delivery order changed the attribution digest")
	}
}
