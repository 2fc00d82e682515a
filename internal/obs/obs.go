// Package obs is the unified observability layer: a typed event stream
// on the simulator's virtual clock and a zero-cost-when-off metrics
// registry, shared by the serving engine, the replay control loop, the
// experiment suite, and janusd's operator surface.
//
// Two design rules govern everything here:
//
//  1. Observation must never perturb the observed run. Tracers and
//     registry handles only read engine state; they schedule nothing on
//     the virtual clock and mutate nothing the engine reads. Attaching a
//     tracer therefore leaves every run byte-identical (pinned by test).
//
//  2. Off must cost nothing. Every emit site in the engine is guarded by
//     a nil check on the tracer (mirroring the replay window's
//     `st.window != nil` idiom), so with no sink attached the entire
//     event path compiles down to one predictable branch per site: no
//     Event is constructed, nothing allocates, and the 0 allocs/op
//     park/wake guarantee holds under the bench guard.
package obs

import (
	"strconv"
	"time"
)

// Kind identifies what happened. The taxonomy covers the full serving
// lifecycle plus the control-plane actions that shape it.
type Kind uint8

const (
	// KindAdmit: a request entered the system. Value = SLO in ns.
	KindAdmit Kind = iota
	// KindDecision: the allocator sized a decision group. Value =
	// millicores chosen, Aux = remaining budget in ns, Flag = hint hit,
	// Reason = the group's resolved shape key ("" when nothing in the
	// group resolved, as in every static workflow).
	KindDecision
	// KindPark: an acquisition did not fit and the node parked. Value =
	// millicores demanded.
	KindPark
	// KindWake: a parked acquisition was taken off the park index for
	// retry (the threshold predicate is exact, so the retry succeeds).
	// Value = millicores.
	KindWake
	// KindAcquire: a pod was acquired. Value = millicores, Aux = node id,
	// Flag = cold start.
	KindAcquire
	// KindColdStart: cold-start begin, emitted with its Acquire when
	// Flag was cold. Value = the startup duration in ns, so the cold
	// start ends at At+Value (the pod's Release marks the node's end).
	KindColdStart
	// KindRelease: a pod was released at node completion. Value =
	// millicores, Aux = node id.
	KindRelease
	// KindComplete: the request finished. Value = end-to-end latency ns,
	// Aux = SLO ns, Flag = SLO met.
	KindComplete
	// KindSLOMiss: emitted immediately after a KindComplete whose E2E
	// exceeded the SLO. Value = overshoot in ns. Flight recorders dump
	// their ring on this kind.
	KindSLOMiss
	// KindPoolScale: the replay control loop applied a warm-pool target.
	// Function names the pool, Value = new target, Aux = previous target.
	KindPoolScale
	// KindScaleAudit: a control-plane hook explains a decision it is
	// about to make — the autoscaler's observed deficit, queue pressure,
	// or cooldown state (Value = proposed target, Aux = current target),
	// or the regen hook's detection (Value = budget floor ms, Aux = miss
	// rate in ppm). Reason = why, in words.
	KindScaleAudit
	// KindSwap: a regenerated hint bundle was hot-swapped in. Value =
	// the synthesis floor in ms, Aux = observed miss rate in ppm,
	// Reason = audit detail.
	KindSwap
	// KindTrigger: an external trigger fired. Reason = "start" for
	// request-start triggers, otherwise the awaited step name.
	KindTrigger

	kindCount // sentinel; keep last
)

var kindNames = [kindCount]string{
	"admit", "decision", "park", "wake", "acquire", "cold_start",
	"release", "complete", "slo_miss", "pool_scale", "scale_audit",
	"swap", "trigger",
}

// String returns the NDJSON wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one observation on the virtual clock. It is a flat value —
// no pointers beyond the strings, which are either interned engine
// state (tenant, function names) or compile-time constants — so storing
// one into a pre-allocated ring allocates nothing.
//
// Request is the per-request causal ID: every event on a request's
// lifecycle (admit → decisions → parks/wakes → acquires/releases →
// complete) carries the same Tenant+Request pair, so a trace
// reconstructs the full causal chain of any SLO miss. Events without a
// request (pool scaling, audits, swaps) carry Request = -1.
type Event struct {
	At       time.Duration // virtual time
	Kind     Kind
	Scope    string // run identity, e.g. "replay/autoscaler+regen" (set by WithScope)
	Tenant   string
	Request  int // causal ID; -1 when the event has no request
	Group    int
	Member   int
	Replica  int
	Function string
	Value    int64 // kind-specific, see the Kind docs
	Aux      int64 // kind-specific, see the Kind docs
	Flag     bool  // kind-specific, see the Kind docs
	Reason   string
}

// Tracer receives events. Implementations decide retention and cost;
// the engine guarantees only that Emit is called in virtual-time order
// within one run. Concurrent runs sharing a sink (the experiment
// suite's fan-out) interleave scopes, so shared sinks must be
// goroutine-safe — NDJSONWriter, Timeline, and Collector are; a
// FlightRecorder is single-run by design.
type Tracer interface {
	Emit(Event)
}

// appendJSON appends the event as one JSON object (no trailing newline).
// Hand-rolled: stable field order, omitted empties, no reflection.
func appendJSON(dst []byte, ev Event) []byte {
	dst = append(dst, `{"at_ns":`...)
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '"')
	if ev.Scope != "" {
		dst = appendStrField(dst, "scope", ev.Scope)
	}
	if ev.Tenant != "" {
		dst = appendStrField(dst, "tenant", ev.Tenant)
	}
	if ev.Request >= 0 {
		dst = append(dst, `,"request":`...)
		dst = strconv.AppendInt(dst, int64(ev.Request), 10)
		dst = append(dst, `,"group":`...)
		dst = strconv.AppendInt(dst, int64(ev.Group), 10)
		dst = append(dst, `,"member":`...)
		dst = strconv.AppendInt(dst, int64(ev.Member), 10)
		if ev.Replica > 0 {
			dst = append(dst, `,"replica":`...)
			dst = strconv.AppendInt(dst, int64(ev.Replica), 10)
		}
	}
	if ev.Function != "" {
		dst = appendStrField(dst, "function", ev.Function)
	}
	dst = append(dst, `,"value":`...)
	dst = strconv.AppendInt(dst, ev.Value, 10)
	if ev.Aux != 0 {
		dst = append(dst, `,"aux":`...)
		dst = strconv.AppendInt(dst, ev.Aux, 10)
	}
	if ev.Flag {
		dst = append(dst, `,"flag":true`...)
	}
	if ev.Reason != "" {
		dst = appendStrField(dst, "reason", ev.Reason)
	}
	return append(dst, '}')
}

func appendStrField(dst []byte, key, val string) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, `":`...)
	return appendQuoted(dst, val)
}

// appendQuoted JSON-quotes s. Engine strings are plain identifiers, but
// escape control characters, quotes, and backslashes for safety.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0',
				"0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
