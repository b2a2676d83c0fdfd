package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"athena/internal/packet"
)

// TestLiveSteadyStateAdvanceAllocFree pins the LiveCorrelator buffer-reuse
// contract: once the working set is warm, a steady-state ingest step
// (records in, Advance, one view emitted, mid-stream trim) performs no
// heap allocation at all — with a nil Emit, and with a consumer that
// reads the borrowed view inside the callback. Any new per-Advance map,
// slice, closure or per-view copy in the hot path shows up here as a
// fractional allocs/op.
func TestLiveSteadyStateAdvanceAllocFree(t *testing.T) {
	var tbs int
	for name, emit := range map[string]func(PacketView){
		"nil-emit":       nil,
		"borrowing-emit": func(v PacketView) { tbs += len(v.TBIDs) },
	} {
		lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, emit)
		seq := uint32(0)
		step := func() {
			feedStep(lc, nil, seq)
			lc.Advance(time.Duration(seq) * 10 * time.Millisecond)
			seq++
		}
		// Warm up past the flush horizon and the first few trims so every
		// recycled buffer has reached its steady-state capacity.
		for i := 0; i < 500; i++ {
			step()
		}
		emitted := lc.Snapshot().Emitted
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Fatalf("%s: steady-state Advance allocates %.2f objects/op, want 0", name, allocs)
		}
		if lc.Snapshot().Emitted-emitted < 200 {
			t.Fatalf("%s: measured steps emitted no views", name)
		}
	}
	if tbs == 0 {
		t.Fatal("emitted views carried no TBIDs; the borrow was not exercised")
	}
}

// TestCorrelateAllocsBounded pins the allocation count of Correlate over
// a pre-sorted capture. The one-shot feed allocates a fixed set of
// buffers presized from the input's lengths (the correlator, its index
// maps, one identity state per flow) and groups no frames, so the count
// is a small constant where the map-join implementation spent
// O(packets + TBs) allocations: a per-call grouping or a regrowing
// buffer moves it. Map layouts differ between runtimes, so the count is
// pinned on the toolchain it was measured with, allocToolchain (-race
// adds one); any other only checks a ceiling that still fails loudly on
// a return to per-record allocation.
func TestCorrelateAllocsBounded(t *testing.T) {
	const allocToolchain, pinned, ceiling = "go1.24.0", 52, 200
	in := synthInput(5000, 4, 99)
	var rep *Report
	allocs := testing.AllocsPerRun(10, func() {
		rep = Correlate(in)
	})
	if len(rep.Packets) != 5000 {
		t.Fatalf("correlated %d of 5000 packets", len(rep.Packets))
	}
	if v := runtime.Version(); v != allocToolchain {
		t.Logf("Correlate allocates %.0f objects/op; pinned on %s, not on %s", allocs, allocToolchain, v)
		if allocs > ceiling {
			t.Fatalf("Correlate allocates %.0f objects/op, want <= %d", allocs, ceiling)
		}
		return
	}
	want := float64(pinned)
	if raceEnabled {
		want++
	}
	if allocs != want {
		t.Fatalf("Correlate allocates %.0f objects/op, want %.0f", allocs, want)
	}
}

// TestCorrelateMatchesMapJoinReference pins Correlate on randomized
// multi-flow inputs — with and without clock offsets, receiver captures,
// flow filters, and pre-sorted sender order — to the pre-overhaul map-join
// correlator it replaced: each literal is reportHash of that reference
// implementation's report, recorded before the reference was deleted.
func TestCorrelateMatchesMapJoinReference(t *testing.T) {
	type variant struct {
		name string
		mut  func(in Input, rng *rand.Rand) Input
	}
	variants := []variant{
		{"plain", func(in Input, _ *rand.Rand) Input { return in }},
		{"offsets", func(in Input, _ *rand.Rand) Input {
			in.Offsets = map[packet.Point]time.Duration{
				packet.PointSender:   5 * time.Millisecond,
				packet.PointCore:     -2 * time.Millisecond,
				packet.PointReceiver: 1 * time.Millisecond,
			}
			return in
		}},
		{"receiver", func(in Input, _ *rand.Rand) Input {
			in.Receiver = make([]packet.Record, 0, len(in.Core))
			for _, r := range in.Core {
				r.LocalTime += 20 * time.Millisecond
				in.Receiver = append(in.Receiver, r)
			}
			in.ProbeOWDBaseline = 15 * time.Millisecond
			return in
		}},
		{"flow-filter", func(in Input, _ *rand.Rand) Input {
			in.Flows = []uint32{1, 3}
			return in
		}},
		{"unsorted-sender", func(in Input, rng *rand.Rand) Input {
			shuffled := append([]packet.Record(nil), in.Sender...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			in.Sender = shuffled
			return in
		}},
		{"no-tbs", func(in Input, _ *rand.Rand) Input {
			in.TBs = nil
			return in
		}},
	}
	want := map[string]string{
		"plain/seed1/flows1":           "ebcba4258280b9353c4477f937cb7f9b8c673a79828974969dc3209d183de598",
		"offsets/seed1/flows1":         "a5788e4e6ead87c09497ce210e8a061a6f7fc4b40d6afd48809d7a7d0ebfe3b1",
		"receiver/seed1/flows1":        "c0f471829c3c5e1e7b879dde540995f43be90f9d664c4afd6e11c1a27abb157d",
		"flow-filter/seed1/flows1":     "ebcba4258280b9353c4477f937cb7f9b8c673a79828974969dc3209d183de598",
		"unsorted-sender/seed1/flows1": "c952990dbc7e9bdfa004c81b8d602fb4ef716cb949240e95badc6caba30014ea",
		"no-tbs/seed1/flows1":          "58991b938fb05b2acdc51838e27a47f88a4b889b6fc5eec1422ee831f7b42a6c",
		"plain/seed1/flows4":           "f3036767201bb4fb73b3f00e5f78f05f6fc7878ae9a816c923ec27d1b74985ca",
		"offsets/seed1/flows4":         "6550b1e1491e8b9a3ac7458a455d06554fc2e0d9deae3511d12c02805017fe01",
		"receiver/seed1/flows4":        "16472710f95dbbe79dfd17470f971365b878c1d5cf40c7354f8f5bc104cc399a",
		"flow-filter/seed1/flows4":     "35f6438fafcc7db1b880fab713da401c80736c60a829ef8d7c1511de15539ed2",
		"unsorted-sender/seed1/flows4": "cadc151639a9a7d61887953802bdff4326937fba5bc5f0428067254dbac66f2d",
		"no-tbs/seed1/flows4":          "6e97ac0f4df6d5cc405fb4e20c4a5753364240b6e41a5ac7c0328e725747445e",
		"plain/seed1/flows7":           "e170adfa04535d557b5d818f59e4654484747eb9757ba0848d7e59db1d3573ed",
		"offsets/seed1/flows7":         "fbe2a5c642ac8b35556452a9747a44bd114dce8d9b16202c64327cbaa8c4633c",
		"receiver/seed1/flows7":        "db26616c859b4efdec2c68bd8cc9646c660c165d18b271a7246bc225abfdd68a",
		"flow-filter/seed1/flows7":     "1d4a4adae4bd97bd23b37e4bcecac7281db697c222e9a5fc8687690aa7011de5",
		"unsorted-sender/seed1/flows7": "3c4a690b16282dbab37d47e94d7bc9a072e8f2f8e6da8abbd054b682b23d8a76",
		"no-tbs/seed1/flows7":          "2c90007ddc3e08b0cf52d97f6f0bbce5e5d44cbfd450a7d175d1015c8cb13d90",
		"plain/seed2/flows1":           "b8d8d29524ee51dda215cdb469fa0d4606e13dc6a5d62b82e808dbff56eb9428",
		"offsets/seed2/flows1":         "c3e7b31d0a549a5e1e15026c3d322889161cb290714447df79b885f20fef4d1a",
		"receiver/seed2/flows1":        "f351b2d13b5864502096040407a5afe2bebebf891dbf130742c8d45727457526",
		"flow-filter/seed2/flows1":     "b8d8d29524ee51dda215cdb469fa0d4606e13dc6a5d62b82e808dbff56eb9428",
		"unsorted-sender/seed2/flows1": "2c84e8316accd668617e778f2b41bb249a1e790564dfc785efb49f5b79c889eb",
		"no-tbs/seed2/flows1":          "a63fe834b90fda186b5947906a488d2076290a4e5d250b952d7da9c3a6dcabdd",
		"plain/seed2/flows4":           "74f106b3d08ff9df43333994373b10f6577e5a44cce0843771f9545b6024e5bc",
		"offsets/seed2/flows4":         "679e92079e24ea59894988aed369256b1d6c6422536d69f864942fbeafec5cf8",
		"receiver/seed2/flows4":        "3913134a35105757edd07dc4c37374aabc88aaaf14047673090b0ad53834721b",
		"flow-filter/seed2/flows4":     "fe57da6ff3757741e87ff1a314e38cae4aa9d53775c496747321cb71481e9ecc",
		"unsorted-sender/seed2/flows4": "439dbf41d6cd6e17de8a23101d3abc17b9c586ecad7e98249c01d917703242c2",
		"no-tbs/seed2/flows4":          "f51aae196f05bd876cdd740d3efb15a0a51159fc68b7db63dbb14a8e60f8ee51",
		"plain/seed2/flows7":           "fb55e80da945f6d12d5ca329636bb2a2db79fb58a4b215d02ab104731b363eeb",
		"offsets/seed2/flows7":         "c90fd206d8ea66a37331a7670c1ad51057d34732088257bc5573b9b9bcf8582c",
		"receiver/seed2/flows7":        "b32e80692c1cedebe47f5cb93c01b913d99a596089c467ae41a937fdfdcbc4c2",
		"flow-filter/seed2/flows7":     "105638ed3a871973b5569938df712f4de8c58f13690d270af4d162cb37efc036",
		"unsorted-sender/seed2/flows7": "894b41af0bbeb7d207267b21b88e6d4969b5276d63e7136b1079a6516eeb7bd9",
		"no-tbs/seed2/flows7":          "a797d483a7ff7447062871c9fcc3ee5e375e70b1213aa3a74a0ec8d276a50389",
		"plain/seed3/flows1":           "1c54272c167b62dcca6084dbcc27ca198a089c5d4ba95976055b2500e40d9506",
		"offsets/seed3/flows1":         "9718cea5bb139010f9da36d56dc1e0e4944a6b882d01664b88a516db49bba304",
		"receiver/seed3/flows1":        "ebc4c3f5c8267e1c870ed48110c3e0973301b11d9c4ee2485ee2a14aaf6912e2",
		"flow-filter/seed3/flows1":     "1c54272c167b62dcca6084dbcc27ca198a089c5d4ba95976055b2500e40d9506",
		"unsorted-sender/seed3/flows1": "cc7fea63a8ab1e38bed102669b34cd33d60b011822c6d482c3769e549a947a8b",
		"no-tbs/seed3/flows1":          "bc83d3ec8d6da247c0f3184b4aab89c5c98320d91952ae974efbf89f1fdf810d",
		"plain/seed3/flows4":           "189cdb65c1bcc9ee585b9a20fb2ef6ab56200492521a0d5dd7bfe1165947fd19",
		"offsets/seed3/flows4":         "37de4e5d57755d6ea967753e77b7e57803cdbdda3120f7781ed81f4079900f6f",
		"receiver/seed3/flows4":        "7c43c8db7b39f8c4535f5b9eb65c79344d771be358516ba9282edae068304831",
		"flow-filter/seed3/flows4":     "615413c9c43cc9d74d7cfe3d005c6cacb8d14d0a22a002da404b5f1778470917",
		"unsorted-sender/seed3/flows4": "e376226dc53e6418ee11f7f23362d7e742276c3b800d8563a79765775f299dad",
		"no-tbs/seed3/flows4":          "c724de6c53ab352f15753158b4dea1c22dd7067416648ab23c45ce4fa7d92ec3",
		"plain/seed3/flows7":           "75950f8095b1793012a774b4500e60ee6991de793a73c9ddfb6a534d5ece1c24",
		"offsets/seed3/flows7":         "008274b3db33ba6e2e872ae3e1a1aedddde211f72262d628ffba6b2e02d8db93",
		"receiver/seed3/flows7":        "d44991e0d2d158f37a4765cfbd4491d50cd41bd9119a2bf912fd7df7c70a322a",
		"flow-filter/seed3/flows7":     "10a6ba50d27b4cf3351cc70d9d32bcc2296874817aad89302ca6a22681002fc2",
		"unsorted-sender/seed3/flows7": "f50819fe4c79ccfd9aec1318142d4118b4454a3716bc6330afc240c77adb17d0",
		"no-tbs/seed3/flows7":          "c5e987d5eabc0f1393104e28df8c624fe63baa72313cae69707516b98da97f87",
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, flows := range []int{1, 4, 7} {
			base := synthInput(2500, flows, seed)
			for _, v := range variants {
				name := fmt.Sprintf("%s/seed%d/flows%d", v.name, seed, flows)
				rng := rand.New(rand.NewSource(seed * 1000))
				in := v.mut(base, rng)
				if got := reportHash(Correlate(in)); got != want[name] {
					t.Errorf("%s: report hash %s, reference recorded %s", name, got, want[name])
				}
			}
		}
	}
}

// TestCorrelateAcceptsWhatLiveRejects checks Correlate's feed rules
// relationally: a shuffled core capture is correlated from a sorted copy,
// and an exact replay of a sender record is dropped — each leaves the
// report unchanged.
func TestCorrelateAcceptsWhatLiveRejects(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := synthInput(2000, 4, seed)
		want := reportHash(Correlate(in))
		rng := rand.New(rand.NewSource(seed))

		shuffled := in
		shuffled.Core = slices.Clone(in.Core)
		rng.Shuffle(len(shuffled.Core), func(i, j int) {
			shuffled.Core[i], shuffled.Core[j] = shuffled.Core[j], shuffled.Core[i]
		})

		replayed := in
		i := rng.Intn(len(in.Sender))
		replayed.Sender = slices.Insert(slices.Clone(in.Sender), i, in.Sender[i])

		for name, in := range map[string]Input{"shuffled-core": shuffled, "replayed-sender": replayed} {
			if got := reportHash(Correlate(in)); got != want {
				t.Errorf("seed %d, %s: report hash %s, want %s", seed, name, got, want)
			}
		}
	}
}

// TestRecordsBeforeTimeZeroAreFed stamps every sender and core record
// 30 ms earlier and declares that as the two clocks' offset, so the
// first records fall before time zero while every corrected time is
// unchanged: Correlate's report must be too, and a chunked live replay
// must still emit it.
func TestRecordsBeforeTimeZeroAreFed(t *testing.T) {
	const off = -30 * time.Millisecond
	for seed := int64(1); seed <= 3; seed++ {
		in := synthInput(2000, 4, seed)
		want := reportHash(Correlate(in))

		early := in
		early.Offsets = map[packet.Point]time.Duration{packet.PointSender: off, packet.PointCore: off}
		early.Sender, early.Core = slices.Clone(in.Sender), slices.Clone(in.Core)
		for i := range early.Sender {
			early.Sender[i].LocalTime += off
		}
		for i := range early.Core {
			early.Core[i].LocalTime += off
		}
		if early.Sender[0].LocalTime >= 0 || early.Core[0].LocalTime >= 0 {
			t.Fatalf("seed %d: first records at %v / %v, want before zero",
				seed, early.Sender[0].LocalTime, early.Core[0].LocalTime)
		}
		rep := Correlate(early)
		if len(rep.Packets) != len(in.Sender) {
			t.Errorf("seed %d: correlated %d of %d sender records", seed, len(rep.Packets), len(in.Sender))
		}
		if got := reportHash(rep); got != want {
			t.Errorf("seed %d: report hash %s, want %s", seed, got, want)
		}
		views, _ := replayChunked(t, early, func(int) time.Duration { return 7 * time.Millisecond })
		assertStreamMatchesBatch(t, early, views)
	}
}

// reportHash renders every field of a Report the equivalence contract
// covers — each view with its TBIDs, the frames, the key index's view
// positions and the matcher's fifoLeft — and returns its SHA-256. The
// index is rendered from the views, as the map-join reference recorded
// it: one "{flow seq kind}=position" line per view with an identity.
func reportHash(rep *Report) string {
	h := sha256.New()
	for _, v := range rep.Packets {
		fmt.Fprintf(h, "%+v\n", v)
	}
	for _, f := range rep.Frames() {
		fmt.Fprintf(h, "%+v\n", f)
	}
	for i, v := range rep.Packets {
		if !sequenceLess(v.Kind) {
			fmt.Fprintf(h, "%v=%d\n", rawKey{v.Flow, v.Seq, v.Kind}, i)
		}
	}
	fmt.Fprintf(h, "fifo nil=%v %v\n", rep.fifoLeft == nil, rep.fifoLeft)
	return hex.EncodeToString(h.Sum(nil))
}

// rawKey is a record's flow, raw sequence number and kind, for tests that
// look up packets on inputs with no wrap and no sequence-less kind.
type rawKey struct {
	flow, seq uint32
	kind      packet.Kind
}
