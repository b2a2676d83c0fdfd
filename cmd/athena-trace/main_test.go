package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"athena"
	"athena/internal/core"
	"athena/internal/packet"
	"athena/internal/session"
)

// A dumped run, read back, correlates to the run's own uplink report:
// the same packets digest and the same uplink attribution.
func TestFeedRoundTrip(t *testing.T) {
	cfg := athena.DefaultConfig()
	cfg.Duration = 2 * time.Second
	res := athena.Run(cfg)
	streams := res.SessionStreams()
	var buf bytes.Buffer
	if err := writeFeed(&buf, &streams[0]); err != nil {
		t.Fatal(err)
	}
	// The dump holds what a capture or a sniffer sees: no simulator
	// packet identity, and no capture field nothing reads.
	for _, key := range []string{`"Point"`, `"PacketID"`, `"RTPSeq"`, `"MediaMeta"`, `"PacketIDs"`} {
		if bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Fatalf("the dump carries the key %s", key)
		}
	}
	sc, in, err := readFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ID != streams[0].ID {
		t.Fatalf("session id %q, want %q", sc.ID, streams[0].ID)
	}
	rep := core.Correlate(in)
	if got, want := rep.PacketsDigest(), res.Report.PacketsDigest(); got != want {
		t.Fatalf("packets digest %s from the feed, %s from the run", got, want)
	}
	got, want := rep.Attribute(), res.Report.Attribute()
	if !slices.Equal(got.TotalNS[:core.IdxWAN], want.TotalNS[:core.IdxWAN]) || got.Packets != want.Packets ||
		got.RetxAffected != want.RetxAffected || got.BSRServed != want.BSRServed {
		t.Fatalf("uplink attribution from the feed %+v, from the run %+v", got, want)
	}
}

// A malformed, oversize or contract-breaking feed is an error naming its
// line, never a panic: athena-serve's session checks apply line by line.
func TestReadFeedErrors(t *testing.T) {
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	rec := func(flow uint32, at time.Duration) packet.Record {
		return packet.Record{Kind: packet.KindVideo, Flow: flow, Seq: uint32(at), Size: 1200, LocalTime: at}
	}
	batch := func(advance time.Duration, recs ...packet.Record) string {
		return line(session.Batch{Sender: recs, AdvanceTo: advance})
	}
	cfg := line(session.Config{ID: "ue1", Input: core.Input{Flows: []uint32{1}}})
	good := batch(100*time.Millisecond, rec(1, time.Millisecond))

	cases := []struct {
		name, in, want string
		is             error
	}{
		{"empty", "", "line 1: ", nil},
		{"no-config", good, "line 1: ", nil},
		{"config-syntax", "{oops\n", "line 1: ", nil},
		{"syntax", cfg + good + "{oops\n", "line 3: ", nil},
		{"trailing", cfg + `{"advance_to_ns":1} extra` + "\n", "line 2: ", nil},
		{"oversize", cfg + good + strings.Repeat("x", maxLine) + "\n", "line 3: ", nil},
		{"out-of-order", cfg + batch(0, rec(1, 2*time.Millisecond), rec(1, time.Millisecond)), "line 2: ", core.ErrOutOfOrder},
		{"uncovered-flow", cfg + good + batch(0, rec(2, 200*time.Millisecond)), "line 3: ", core.ErrFlowNotCovered},
		{"clock-regression", cfg + good + batch(50*time.Millisecond), "line 3: ", core.ErrTimeRegression},
		{"backpressure", line(session.Config{ID: "ue1", MaxPending: 1}) + batch(0, rec(1, time.Millisecond), rec(1, 2*time.Millisecond)), "line 2: ", session.ErrBackpressure},
	}
	for _, tc := range cases {
		_, _, err := readFeed(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one starting %q", tc.name, err, tc.want)
		} else if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.is)
		}
	}
	if _, _, err := readFeed(strings.NewReader(cfg + good)); err != nil {
		t.Fatalf("well-formed feed rejected: %v", err)
	}
}
