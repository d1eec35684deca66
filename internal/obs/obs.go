// Package obs is the simulator's observability layer: a per-cycle
// time-series sampler, a structured front-end event trace, and a metrics
// exporter (canonical JSON and Prometheus text format).
//
// The paper's argument is time-resolved — FTQ Scenario 1/2/3 incidence,
// head-stall latency and L1-I access merging are per-cycle phenomena — so
// end-of-run aggregates alone cannot explain a regression or an ablation
// anomaly. This package gives every run an optional window into cycle
// behaviour without perturbing it:
//
//   - observation is strictly read-only: a Sink receives copies of state
//     the simulator already computed, and nothing flows back. Simulated
//     results are bit-identical with observation on or off (pinned by
//     the obs axis of internal/experiment.TestConformance);
//   - disabled means free: every hook site is a nil check on a Sink
//     field, the same pattern as core.Config.Audit. No sample is built
//     and no event is allocated unless a sink is attached;
//   - output is deterministic: events are emitted in simulation order,
//     samples at fixed cycle strides, and every exporter sorts before
//     writing, so two runs of the same configuration produce
//     byte-identical artifacts.
//
// The package sits below the whole simulator stack (it imports only
// internal/stats and the standard library), so internal/cache,
// internal/ftq, internal/frontend and internal/core can all hold a Sink.
// Simulated time arrives as plain int64 cycles to keep the dependency
// direction acyclic.
package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind enumerates the structured front-end events the simulator
// emits. The set mirrors the control-flow and prefetch edges the paper's
// characterization turns on.
type EventKind uint8

const (
	// EvRedirect: the front-end restarted after a wrong-path branch
	// resolved in the back-end (execute-time recovery). Arg carries the
	// cycle fill resumes.
	EvRedirect EventKind = iota
	// EvPFC: a post-fetch correction — a BTB-missed direct branch was
	// discovered at pre-decode and fill resumed early. Addr is the branch
	// PC, Arg the cycle fill resumes.
	EvPFC
	// EvFlush: the FTQ discarded all resident entries. Arg is the number
	// of entries discarded.
	EvFlush
	// EvPrefetchIssue: a software prefetch fired at pre-decode. Addr is
	// the target address; Arg is 1 for a trigger-table (no-overhead)
	// prefetch, 0 for an inserted prefetch instruction.
	EvPrefetchIssue
	// EvPrefetchFill: a prefetch filled a cache line (it missed and
	// allocated). Addr is the line address, Arg the fill latency.
	EvPrefetchFill
	// EvMergeHit: an FTQ entry's cache line was already covered by a
	// resident entry's request, so no L1-I access was issued (the §V-B
	// aliasing effect). Addr is the line address.
	EvMergeHit

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"redirect",
	"pfc_correction",
	"flush",
	"prefetch_issue",
	"prefetch_fill",
	"merge_hit",
}

// String returns the stable wire name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("unknown_%d", uint8(k))
}

// MarshalJSON renders the kind as its wire name, so JSONL traces are
// self-describing rather than coupling consumers to enum ordinals.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the wire name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range eventKindNames {
		if n == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one structured trace record. Addr and Arg are kind-specific
// (see the EventKind constants); unused fields stay zero and are omitted
// from the JSONL encoding.
type Event struct {
	Cycle int64     `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Addr  uint64    `json:"addr,omitempty"`
	Arg   int64     `json:"arg,omitempty"`
}

// Scenario is the per-cycle FTQ state classification carried by samples:
// 0 = empty, 1 = shoot-through (Scenario 1), 2 = stalling head over a
// completed follower (Scenario 2), 3 = shadow stall (Scenario 3).
type Scenario uint8

const (
	ScenarioEmpty Scenario = iota
	ScenarioShootThrough
	Scenario2
	Scenario3
)

var scenarioNames = [4]string{"empty", "shoot-through", "scenario-2", "scenario-3"}

// String names the scenario as the paper does.
func (s Scenario) String() string {
	if int(s) < len(scenarioNames) {
		return scenarioNames[s]
	}
	return fmt.Sprintf("unknown_%d", uint8(s))
}

// Sample is one point of the per-cycle time series. Counter fields are
// cumulative snapshots (as of the sampled cycle, warmup resets included);
// consumers difference adjacent samples for rates.
type Sample struct {
	Cycle int64 `json:"cycle"`
	// Retired is the cumulative retired program-instruction count, the
	// IPC numerator.
	Retired int64 `json:"retired"`
	// FTQOcc is the resident FTQ entry count; FTQReadyMask has bit i set
	// when the i-th entry from the head (i < 64) has completed its fetch.
	FTQOcc       int    `json:"ftq_occ"`
	FTQReadyMask uint64 `json:"ftq_ready_mask"`
	// Scenario classifies the sampled cycle's FTQ state.
	Scenario Scenario `json:"scenario"`
	// FillStall reports the fill engine blocked on a wrong-path condition.
	FillStall bool `json:"fill_stall,omitempty"`

	L1IAccesses int64 `json:"l1i_accesses"`
	L1IMisses   int64 `json:"l1i_misses"`
	L2Misses    int64 `json:"l2_misses"`
	// SwPrefetches is the cumulative software-prefetch issue count
	// (instruction-carried plus trigger-table).
	SwPrefetches int64 `json:"sw_prefetches"`
}

// Sink receives observability output from a running simulation. All
// methods are invoked from the simulation goroutine, in simulation order;
// implementations need no locking against the simulator but must not
// retain pointers into it. A nil Sink field at every hook site means
// observation is off.
type Sink interface {
	// Event delivers one structured trace record.
	Event(e Event)
	// Sample delivers one time-series point. The simulator calls it every
	// SampleStride cycles.
	Sample(s Sample)
	// SampleStride returns the sampling period in cycles; values <= 0 are
	// treated as 1 (sample every cycle).
	SampleStride() int64
}
