// Package athena is the public API of the Athena cross-layer measurement
// framework, a full reimplementation-as-simulation of "Athena: Seeing and
// Mitigating Wireless Impact on Video Conferencing and Beyond"
// (HotNets 2024).
//
// The package exposes three levels of use:
//
//   - Run / Config: execute a complete Fig 2 testbed scenario — a VCA
//     call over a slot-accurate 5G RAN model (or the paper's emulated
//     wired baseline), with captures at all four measurement points, PHY
//     telemetry, ICMP probing, and the Athena correlator's cross-layer
//     report.
//   - Figure, mitigation, ablation and study drivers (Fig3 … Fig10,
//     M1 … M4, A1 … A4, S1 … S4, S8 … S9): regenerate every evaluation
//     artifact in the paper — plus the §5 agenda — returning plot-ready
//     series.
//   - The building blocks themselves live under internal/ and are
//     exercised through this facade.
package athena

import (
	"context"

	"athena/internal/core"
	"athena/internal/runner"
	"athena/internal/scenario"
)

// Config describes one testbed run; see scenario.Config for all knobs.
type Config = scenario.Config

// Result is a completed run: endpoints, captures, telemetry, and the
// correlated cross-layer report.
type Result = scenario.Result

// Report is the Athena correlator's output.
type Report = core.Report

// Controller kinds selectable in Config.Controller.
const (
	GCC       = scenario.CtlGCC
	NADA      = scenario.CtlNADA
	SCReAM    = scenario.CtlSCReAM
	LossBased = scenario.CtlLossBased
	L4S       = scenario.CtlL4S
	PHYAware  = scenario.CtlPHYAware
	MaskedGCC = scenario.CtlMaskedGCC
)

// AccessKind selects the access technology in Config.Access (§5.1).
type AccessKind = scenario.AccessKind

// Access technologies.
const (
	Access5G    = scenario.Access5G
	AccessWiFi  = scenario.AccessWiFi
	AccessLEO   = scenario.AccessLEO
	AccessWired = scenario.AccessWired
)

// DefaultConfig returns the paper-testbed defaults (private 5G SA cell,
// GCC, light channel fading).
func DefaultConfig() Config { return scenario.Defaults() }

// Run executes a scenario and correlates its traces. Runs go through the
// shared process-wide runner: a config already executed this process
// (same seed, same knobs) is recalled from the memoization cache and the
// callers share one Result. Results are safe to share because their
// accessors are pure readers; call RunFresh for a private, uncached
// Result.
func Run(cfg Config) *Result { return runner.Default.Run(cfg) }

// RunAll executes a batch of independent scenarios, fanning them across
// GOMAXPROCS workers while preserving input order and per-seed
// determinism: the returned results are byte-identical to running each
// config serially. Duplicate configs — within the batch or against the
// process-wide cache — simulate once. Every figure, mitigation, ablation
// and study driver submits its config sweep through this path.
func RunAll(cfgs []Config) []*Result {
	return runner.Default.RunAll(context.Background(), cfgs)
}

// RunFresh executes a scenario directly, bypassing the runner's cache —
// for callers that need exclusive ownership of the Result.
func RunFresh(cfg Config) *Result { return scenario.Run(cfg) }

// Topology describes a multi-UE cell: N VCA participants, each with its
// own endpoint pipeline, clocks, captures and flow IDs, sharing one RAN
// whose schedulers arbitrate their real competing uplink buffers.
type Topology = scenario.Topology

// UESpec configures one participant of a Topology.
type UESpec = scenario.UESpec

// TopologyResult bundles a topology run's shared infrastructure and the
// per-UE results.
type TopologyResult = scenario.TopologyResult

// UEResult is one UE's slice of a topology run, including its
// flow-filtered correlation Report.
type UEResult = scenario.UEResult

// FlowIDs names one UE's uplink/downlink media and NTP flows.
type FlowIDs = scenario.FlowIDs

// NewTopology returns a topology of n default VCA UEs sharing one
// DefaultConfig cell, each with a distinct media seed.
func NewTopology(n int) Topology { return scenario.NewTopology(n) }

// DefaultUE returns the default participant spec.
func DefaultUE() UESpec { return scenario.DefaultUE() }

// RunTopology executes a multi-UE topology and correlates each UE's
// traces. Topology runs are not memoized; every call simulates. An
// invalid topology (unknown workload, non-VCA family off the 5G path,
// dangling cell reference) makes it panic with the error top.Validate()
// returns — call that first on a user-supplied configuration.
func RunTopology(top Topology) *TopologyResult { return scenario.RunTopology(top) }

// WorkloadKind names the application family a UE runs (UESpec.Workload).
// The zero value keeps the historical VCA endpoint.
type WorkloadKind = scenario.WorkloadKind

// Application families a UE can run in a Topology.
const (
	WorkloadVCA          = scenario.WorkloadVCA
	WorkloadCloudGaming  = scenario.WorkloadCloudGaming
	WorkloadBulkTransfer = scenario.WorkloadBulkTransfer
	WorkloadAudioOnly    = scenario.WorkloadAudioOnly
)

// WorkloadScore is a UE's app-level QoE summary (UEResult.Score): a
// family tag plus named scalars.
type WorkloadScore = scenario.WorkloadScore

// WorkloadKinds lists every application family in canonical order.
func WorkloadKinds() []WorkloadKind { return scenario.WorkloadKinds() }
