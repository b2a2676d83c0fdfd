// Package trace serializes Athena's collected cross-layer traces — packet
// capture records and per-TB PHY telemetry — to CSV and JSON, and merges
// them into a single time-ordered event log. cmd/athena-trace uses it to
// dump a run, and its analyze verb reads a dumped JSONL log back.
package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

// Event is one merged cross-layer event, tagged by Layer: "net" for a
// capture record, "phy" for a TB attempt.
type Event struct {
	At    time.Duration `json:"at_ns"`
	Layer string        `json:"layer"`

	// net fields
	Point string `json:"point,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Flow  uint32 `json:"flow,omitempty"`
	Seq   uint32 `json:"seq,omitempty"`
	Size  int64  `json:"size,omitempty"`

	// phy fields
	TBID  uint64 `json:"tb_id,omitempty"`
	UE    uint32 `json:"ue,omitempty"`
	TBS   int64  `json:"tbs,omitempty"`
	Used  int64  `json:"used,omitempty"`
	Grant string `json:"grant,omitempty"`
	Round int    `json:"harq_round,omitempty"`
	Fail  bool   `json:"failed,omitempty"`
}

// Merge interleaves capture records and TB attempts into one time-ordered
// event stream.
func Merge(records []packet.Record, tbs []telemetry.TBRecord) []Event {
	evs := make([]Event, 0, len(records)+len(tbs))
	for _, r := range records {
		evs = append(evs, Event{
			At: r.LocalTime, Layer: "net",
			Point: r.Point.String(), Kind: r.Kind.String(),
			Flow: r.Flow, Seq: r.Seq, Size: int64(r.Size),
		})
	}
	for _, tb := range tbs {
		evs = append(evs, Event{
			At: tb.At, Layer: "phy",
			TBID: tb.TBID, UE: tb.UE, TBS: int64(tb.TBS), Used: int64(tb.UsedBytes),
			Grant: tb.Grant.String(), Round: tb.HARQRound, Fail: tb.Failed,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// WriteJSON emits one JSON object per line (JSONL).
func WriteJSON(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// maxJSONLine bounds one JSONL event line; real events are well under
// 1 KiB, so a longer line signals a corrupt or hostile stream.
const maxJSONLine = 1 << 20

// ReadJSON parses a JSONL event stream, strictly: one JSON object per
// line, no trailing garbage, and every event must pass validate. Errors
// carry the 1-based line number so a corrupt multi-gigabyte trace
// pinpoints its bad record.
func ReadJSON(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxJSONLine)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after event object", line)
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return out, nil
}

// validate rejects events no capture or sniffer can produce. NaN and
// ±Inf timestamps never get this far — JSON cannot encode them, so the
// decoder already failed — but finite nonsense (negative times, unknown
// layers, negative sizes) decodes fine and is caught here.
func (e *Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("negative event time %v", e.At)
	}
	if e.Layer != "net" && e.Layer != "phy" {
		return fmt.Errorf("unknown layer %q", e.Layer)
	}
	if e.Size < 0 {
		return fmt.Errorf("negative size %d", e.Size)
	}
	if e.TBS < 0 || e.Used < 0 {
		return fmt.Errorf("negative TB byte count (tbs=%d used=%d)", e.TBS, e.Used)
	}
	if e.Used > e.TBS {
		return fmt.Errorf("used bytes %d exceed TBS %d", e.Used, e.TBS)
	}
	if e.Round < 0 {
		return fmt.Errorf("negative HARQ round %d", e.Round)
	}
	return nil
}

// packetCSVHeader is the column layout of WritePacketCSV.
var packetCSVHeader = []string{"at_us", "point", "kind", "flow", "seq", "size"}

// WritePacketCSV emits capture records as CSV.
func WritePacketCSV(w io.Writer, records []packet.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(packetCSVHeader); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			strconv.FormatInt(int64(r.LocalTime/time.Microsecond), 10),
			r.Point.String(),
			r.Kind.String(),
			strconv.FormatUint(uint64(r.Flow), 10),
			strconv.FormatUint(uint64(r.Seq), 10),
			strconv.FormatInt(int64(r.Size), 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tbCSVHeader is the column layout of WriteTBCSV.
var tbCSVHeader = []string{"at_us", "tb_id", "ue", "tbs", "used", "grant", "harq_round", "failed"}

// WriteTBCSV emits TB telemetry as CSV.
func WriteTBCSV(w io.Writer, tbs []telemetry.TBRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tbCSVHeader); err != nil {
		return err
	}
	for _, tb := range tbs {
		row := []string{
			strconv.FormatInt(int64(tb.At/time.Microsecond), 10),
			strconv.FormatUint(tb.TBID, 10),
			strconv.FormatUint(uint64(tb.UE), 10),
			strconv.FormatInt(int64(tb.TBS), 10),
			strconv.FormatInt(int64(tb.UsedBytes), 10),
			tb.Grant.String(),
			strconv.Itoa(tb.HARQRound),
			strconv.FormatBool(tb.Failed),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary describes an event stream: its event count and time span, the
// capture records per capture point, and the TB attempts per grant kind
// with their failures and retransmissions. Points and grant kinds print
// in sorted order, so one stream always renders one summary.
func Summary(evs []Event) string {
	points := map[string]int{}
	grants := map[string]int{}
	var net, phy, failed, retx int
	var span time.Duration
	for _, e := range evs {
		if e.At > span {
			span = e.At
		}
		if e.Layer == "net" {
			net++
			points[e.Point]++
			continue
		}
		phy++
		grants[e.Grant]++
		if e.Round > 0 {
			retx++
		}
		if e.Fail {
			failed++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d events (%d net, %d phy) spanning %v\n", len(evs), net, phy, span)
	b.WriteString("packets per capture point:\n")
	writeCounts(&b, points)
	b.WriteString("TB attempts per grant kind:\n")
	writeCounts(&b, grants)
	fmt.Fprintf(&b, "failed attempts: %d; retransmissions: %d", failed, retx)
	return b.String()
}

// writeCounts prints one indented "name count" line per key, sorted.
func writeCounts(b *strings.Builder, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "  %-12s %d\n", k, counts[k])
	}
}
