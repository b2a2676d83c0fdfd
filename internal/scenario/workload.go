package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"time"

	"athena/internal/clock"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/sim"
)

// WorkloadKind names a per-UE application family. The zero value selects
// the historical VCA endpoint, so existing UESpec literals keep their
// meaning unchanged.
type WorkloadKind string

// Application families a UE can run.
const (
	// WorkloadVCA is the full Zoom-like conferencing endpoint (sender,
	// receiver, congestion controller, optional TwoParty far end) — the
	// paper's primary subject and the golden-digest reference.
	WorkloadVCA WorkloadKind = "vca"
	// WorkloadCloudGaming streams frame-paced downlink video on a bitrate
	// ladder while the UE uplinks 125 Hz input events (§5.1's interactive
	// class promoted to a bidirectional endpoint).
	WorkloadCloudGaming WorkloadKind = "cloud-gaming"
	// WorkloadBulkTransfer is a saturating QUIC-like upload with a
	// windowed AIMD sender, scored on goodput.
	WorkloadBulkTransfer WorkloadKind = "bulk-transfer"
	// WorkloadAudioOnly is an Opus-cadence call without video, scored on
	// playout-line concealment.
	WorkloadAudioOnly WorkloadKind = "audio-only"
)

// WorkloadKinds lists every family in canonical order.
func WorkloadKinds() []WorkloadKind {
	return []WorkloadKind{WorkloadVCA, WorkloadCloudGaming, WorkloadBulkTransfer, WorkloadAudioOnly}
}

// MixWorkloads assigns the four families round-robin (canonical order)
// across the topology's UEs — the standard mixed-cell configuration of
// the bench, the load generator and the S8/S9 studies.
func (top *Topology) MixWorkloads() {
	kinds := WorkloadKinds()
	for i := range top.UEs {
		top.UEs[i].Workload = kinds[i%len(kinds)]
	}
}

// workloadKind resolves the spec's family, defaulting empty to VCA.
func (spec UESpec) workloadKind() WorkloadKind {
	if spec.Workload == "" {
		return WorkloadVCA
	}
	return spec.Workload
}

// Workload is one UE's pluggable endpoint stage: it builds the
// application pipeline behind the shared capture points, drives traffic
// for the run, consumes the far-end (point ④) arrivals, and scores
// app-level QoE afterwards. The build hooks take the package's internal
// construction state, so implementations live in this package — external
// families are added here, next to the existing four, where the
// stream-creation-order discipline (see build) can be audited.
//
// Contract: Build runs after the access stage and the point-① capture
// exist (ub.ranUE, ub.res.CapSender); it must emit uplink packets through
// ub.res.CapSender and deliver downlink traffic via
// ub.servingCell.SendDownlink (never a stale cell pointer — handovers
// repoint servingCell). WiredArrival observes every point-④ arrival for
// the UE's flows. Start/Stop bracket the simulation run. Score runs
// after correlation and must be a pure function of the workload's own
// state — it is hashed into sharded-run digests.
type Workload interface {
	Kind() WorkloadKind
	// Hint is the application-family announcement handed to the RAN at
	// attachment for the QoE-aware scheduler.
	Hint() ran.AppHintClass
	Build(b *build, ub *ueBuild)
	WiredArrival(p *packet.Packet)
	Start()
	Stop()
	Score(d time.Duration) WorkloadScore
}

// newWorkload instantiates the spec's family. It runs inside newBuildFor
// in UE order — constructors must not create RNG streams or events (the
// VCA family's controller construction is RNG-free, which keeps the
// refactor byte-identical to the pre-workload layout).
func newWorkload(spec UESpec, ub *ueBuild) Workload {
	switch spec.workloadKind() {
	case WorkloadVCA:
		return newVCAWorkload(spec, ub)
	case WorkloadCloudGaming:
		return &gamingWorkload{ub: ub}
	case WorkloadBulkTransfer:
		return &bulkWorkload{ub: ub}
	case WorkloadAudioOnly:
		return &audioOnlyWorkload{ub: ub}
	}
	panic("scenario: newWorkload on a spec Topology.Validate rejects")
}

// WorkloadScore is one UE's app-level QoE summary: a family tag plus
// named scalars (delays in ms, rates in their named units, fractions in
// [0,1]). Scalars is family-specific; String renders a canonical
// sorted-key form stable enough to hash into digests.
type WorkloadScore struct {
	Kind    WorkloadKind
	Scalars map[string]float64
}

// String renders the score canonically: kind then sorted key=value pairs
// at %.6g.
func (ws WorkloadScore) String() string {
	keys := make([]string, 0, len(ws.Scalars))
	for k := range ws.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(string(ws.Kind))
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.6g", k, ws.Scalars[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// handleNTPReply consumes a core-turned NTP reply arriving on the UE's
// downlink, folding the four timestamps into the sender-host sync
// estimator. Every family's downlink demux routes through it first; it
// reports whether the packet was an NTP reply (consumed either way, as
// the historical VCA demux did).
func (ub *ueBuild) handleNTPReply(s *sim.Simulator, p *packet.Packet) bool {
	if p.Kind != packet.KindCross || p.Flow != ub.flows.NTP {
		return false
	}
	if t1, ok := ub.ntpT1[p.ID]; ok {
		stamp := ub.ntpT2[p.ID]
		ub.senderNTP.Add(clock.ProbeSample{
			T1: t1, T2: stamp, T3: stamp,
			T4: ub.senderClk.Read(s.Now()),
		})
		delete(ub.ntpT1, p.ID)
		delete(ub.ntpT2, p.ID)
	}
	return true
}

// FamilyDigests hashes each workload family's correlated output
// separately (the writeUEDigest rendering, restricted to that family's
// UEs in global order). The scale-out bench compares these per family
// between serial and sharded execution, so a digest drift names the
// family that diverged instead of one opaque topology hash.
func (tr *TopologyResult) FamilyDigests() map[WorkloadKind]string {
	raw := make(map[WorkloadKind]hash.Hash)
	for _, u := range tr.UEs {
		k := u.Workload
		if k == "" {
			k = WorkloadVCA
		}
		h, ok := raw[k]
		if !ok {
			h = sha256.New()
			raw[k] = h
		}
		writeUEDigest(h, u)
	}
	out := make(map[WorkloadKind]string, len(raw))
	for k, h := range raw {
		out[k] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}
