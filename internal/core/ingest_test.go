package core

import (
	"errors"
	"sort"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

func sRec(flow, seq uint32, kind packet.Kind, at time.Duration) packet.Record {
	return packet.Record{
		Point: packet.PointSender, Kind: kind, Flow: flow, Seq: seq,
		Size: 1200, LocalTime: at,
	}
}

func cRec(flow, seq uint32, kind packet.Kind, at time.Duration) packet.Record {
	r := sRec(flow, seq, kind, at)
	r.Point = packet.PointCore
	return r
}

func TestIngestRejectsOutOfOrderSender(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.OnSenderRecord(sRec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := lc.OnSenderRecord(sRec(1, 1, packet.KindVideo, 5*time.Millisecond))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	if got := lc.Snapshot().BufferedSender; got != 1 {
		t.Fatalf("rejected record was ingested: buffered %d", got)
	}
}

func TestIngestRejectsOutOfOrderCore(t *testing.T) {
	lc := NewLive(Input{}, nil)
	if err := lc.OnCoreRecord(cRec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := lc.OnCoreRecord(cRec(1, 1, packet.KindVideo, 9*time.Millisecond))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
	if got := lc.Snapshot().BufferedCore; got != 1 {
		t.Fatalf("rejected record was ingested: buffered %d", got)
	}
}

func TestIngestRejectsDuplicateSender(t *testing.T) {
	lc := NewLive(Input{}, nil)
	r := sRec(1, 7, packet.KindVideo, 10*time.Millisecond)
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
	if err := lc.OnSenderRecord(sRec(99, 0, packet.KindCross, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(sRec(99, 0, packet.KindCross, 20*time.Millisecond)); err != nil {
		t.Fatalf("repeated key at a later time must pass: %v", err)
	}
	if err := lc.OnSenderRecord(sRec(99, 0, packet.KindCross, 20*time.Millisecond)); !errors.Is(err, ErrDuplicate) {
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
		if err := lc.OnSenderRecord(sRec(1, uint32(i), packet.KindVideo, at*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	head := sRec(1, 3, packet.KindVideo, 40*time.Millisecond)
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
	if err := lc.OnSenderRecord(sRec(1, 1, packet.KindVideo, 20*time.Millisecond)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("old replay after drain: want ErrOutOfOrder, got %v", err)
	}
	if err := lc.OnSenderRecord(sRec(1, 4, packet.KindVideo, 50*time.Millisecond)); err != nil {
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
	a := sRec(1, 1, packet.KindVideo, 10*time.Millisecond)
	a.Size = 100
	b := sRec(1, 2, packet.KindVideo, 10*time.Millisecond)
	for _, r := range []packet.Record{a, b} {
		if err := lc.OnSenderRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lc.OnCoreRecord(cRec(1, 1, packet.KindVideo, 13*time.Millisecond)); err != nil {
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

// Drain must flush every pending packet regardless of where the feeder
// left the clock — including feeds that never advanced at all and use
// absolute (epoch-like) capture times far ahead of the zero clock.
func TestDrainFlushesWithoutAdvance(t *testing.T) {
	const base = 1700000000 * time.Second
	var views int
	lc := NewLive(Input{}, func(PacketView) { views++ })
	for i := 0; i < 20; i++ {
		at := base + time.Duration(i)*10*time.Millisecond
		if err := lc.OnSenderRecord(sRec(1, uint32(i), packet.KindVideo, at)); err != nil {
			t.Fatal(err)
		}
		if err := lc.OnCoreRecord(cRec(1, uint32(i), packet.KindVideo, at+3*time.Millisecond)); err != nil {
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
	if err := lc.OnSenderRecord(sRec(1, 0, packet.KindVideo, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(sRec(3, 0, packet.KindVideo, 2*time.Millisecond)); !errors.Is(err, ErrFlowNotCovered) {
		t.Fatalf("want ErrFlowNotCovered, got %v", err)
	}
	if err := lc.OnCoreRecord(cRec(3, 0, packet.KindVideo, 2*time.Millisecond)); !errors.Is(err, ErrFlowNotCovered) {
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
	if err := lc.OnSenderRecord(sRec(1, 0, packet.KindVideo, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnSenderRecord(sRec(1, 9, packet.KindVideo, 5*time.Millisecond)); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if err := lc.OnSenderRecord(sRec(1, 1, packet.KindVideo, 20*time.Millisecond)); err != nil {
		t.Fatalf("feed must continue after a rejection: %v", err)
	}
	if err := lc.OnCoreRecord(cRec(1, 0, packet.KindVideo, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := lc.OnCoreRecord(cRec(1, 1, packet.KindVideo, 25*time.Millisecond)); err != nil {
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
		if err := lc.OnSenderRecord(sRec(1, uint32(i), packet.KindVideo, at)); err != nil {
			t.Fatal(err)
		}
		if err := lc.OnCoreRecord(cRec(1, uint32(i), packet.KindVideo, at+time.Millisecond)); err != nil {
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
// feed contract.
func replayChunked(t testing.TB, in Input, step func(i int) time.Duration) []PacketView {
	t.Helper()
	cfg := in
	cfg.Sender, cfg.Core, cfg.TBs = nil, nil, nil
	var views []PacketView
	lc := NewLive(cfg, func(v PacketView) { views = append(views, v.Clone()) })
	si, ci, ti := 0, 0, 0
	now := time.Duration(0)
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
			if err := lc.OnTB(in.TBs[ti]); err != nil {
				t.Fatalf("tb %d: %v", ti, err)
			}
			ti++
		}
		if err := lc.Advance(now); err != nil {
			t.Fatalf("advance %v: %v", now, err)
		}
	}
	if err := lc.Advance(now + 30*time.Second); err != nil {
		t.Fatalf("final advance: %v", err)
	}
	return views
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
			views := replayChunked(t, in, step)
			t.Run(name, func(t *testing.T) { assertStreamMatchesBatch(t, in, views) })
		}
	}
}

// FuzzLiveFeedOrder fuzzes the delivery chunking of a synthetic session:
// each fuzz byte is a clock increment, so the corpus explores adversarial
// interleavings of sender/core/TB delivery against Advance (including
// long stalls that force horizon flushes and mid-stream trims). Emitted
// views must always digest-match the batch correlation.
func FuzzLiveFeedOrder(f *testing.F) {
	f.Add(int64(1), []byte{3, 18, 1, 1, 250, 2, 9})
	f.Add(int64(42), []byte{1})
	f.Add(int64(99), []byte{200, 200, 200})
	f.Fuzz(func(t *testing.T, seed int64, chunks []byte) {
		if len(chunks) == 0 {
			chunks = []byte{5}
		}
		if len(chunks) > 256 {
			chunks = chunks[:256]
		}
		in := synthInput(300, 3, seed)
		step := func(i int) time.Duration {
			ms := int(chunks[i%len(chunks)])%120 + 1
			return time.Duration(ms) * time.Millisecond
		}
		views := replayChunked(t, in, step)
		assertStreamMatchesBatch(t, in, views)
	})
}

// TestIngestTBOrderFree pins the documented TB contract: merged multi-cell
// telemetry interleaves in time, so feeding TBs in a different (but
// causally plausible) order must not change the attribution digest.
func TestIngestTBOrderFree(t *testing.T) {
	in := synthInput(400, 4, 5)
	base := replayChunked(t, in, func(int) time.Duration { return 5 * time.Millisecond })

	shuffled := in
	shuffled.TBs = append([]telemetry.TBRecord(nil), in.TBs...)
	// A stable sort by At reorders HARQ retries relative to later initial
	// attempts — exactly how a time-merged multi-cell stream delivers them.
	sort.SliceStable(shuffled.TBs, func(i, j int) bool { return shuffled.TBs[i].At < shuffled.TBs[j].At })
	alt := replayChunked(t, shuffled, func(int) time.Duration { return 5 * time.Millisecond })

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
