package platform

import (
	"fmt"
	"time"

	"janus/internal/obs"
	"janus/internal/workflow"
)

// This file holds the serving plane's dynamic-shape overlays: requests
// of a workflow with dynamic annotations (workflow.NewDynamic)
// materialize their plan online as predicates resolve, instead of
// executing the full skeleton. The skeleton still defines the decision
// groups and readiness countdowns, and the one readiness scheduler in
// platform.go serves every workflow; three per-request overlays project
// the skeleton down, each reached only through a node's annotation
// flags, so a static workflow — a plan with no annotations — never
// touches them:
//
//   - liveness: a completed choice node kills its unchosen successor
//     edges; a node all of whose incoming edges are dead is pruned —
//     counted as finished for readiness and completion the instant its
//     death is determined, never scheduled, never billed;
//   - replication: a map node's fan-out width, revealed at its group's
//     readiness instant, launches that many concurrent replicas which
//     join before the node counts as done;
//   - iteration: a failed attempt of a retry node re-executes after a
//     fresh allocation decision against the SLO budget remaining at
//     that instant (the budget mechanism absorbs the repeated work);
//     an await node defers its group's decision to the fire instant of
//     its external trigger.
//
// Every resolution is pre-drawn from the request's seeded RNG
// (DynDraws), so a dynamic run is a pure function of its inputs: the
// event interleaving, traces, and metrics replay byte for byte at any
// driver parallelism, exactly like a static one.

type nodeLoc struct{ group, member int }

// annotate fills the plan's annotation flags and its dynamic-only tables.
func (p *plan) annotate(w *workflow.Workflow) {
	n := len(p.kind)
	p.loc = make([]nodeLoc, n)
	p.spec = make([]workflow.DynamicNode, n)
	p.inDeg = make([]int, n)
	p.succ = make([][]int, n)
	for g, grp := range p.groups {
		for b, node := range grp {
			flat := p.base[g] + b
			p.loc[flat] = nodeLoc{group: g, member: b}
			d, _ := w.Dynamic(node.Name)
			p.spec[flat] = d
			p.inDeg[flat] = len(w.Predecessors(node.Name))
			for _, s := range w.Successors(node.Name) {
				p.succ[flat] = append(p.succ[flat], p.flat[s])
			}
			if d.Choice != nil {
				p.kind[flat] |= kindChoice
				p.prunes = true
			}
			if d.Map != nil {
				p.kind[flat] |= kindMap
			}
			if d.Retry != nil {
				p.kind[flat] |= kindRetry
			}
			if d.Await {
				p.kind[flat] |= kindAwait
				p.awaits = append(p.awaits, flat)
			}
		}
	}
}

// name is the step name of flat node index flat (dynamic plans only).
func (p *plan) name(flat int) string {
	l := p.loc[flat]
	return p.groups[l.group][l.member].Name
}

// validateRequest checks that a request of a dynamic workflow carries a
// complete, in-range pre-sampled resolution (GenerateWorkload's output
// shape): hand-built requests fail here instead of mid-run. Static
// plans have nothing to check.
func (p *plan) validateRequest(tenant string, r *Request) error {
	if len(p.spec) > 0 && r.Dyn == nil {
		return fmt.Errorf("platform: tenant %q request %d serves dynamic workflow %s without pre-sampled resolutions (Request.Dyn)",
			tenant, r.ID, r.Workflow.Name())
	}
	for flat := range p.spec {
		d, step := &p.spec[flat], p.name(flat)
		if d.Choice != nil {
			idx, ok := r.Dyn.Choice[step]
			if !ok || idx < 0 || idx >= len(p.succ[flat]) {
				return fmt.Errorf("platform: tenant %q request %d choice step %q resolution %d out of range [0, %d)",
					tenant, r.ID, step, idx, len(p.succ[flat]))
			}
		}
		if d.Map == nil && d.Retry == nil {
			continue
		}
		width := 1
		if d.Map != nil {
			width = r.Dyn.Width[step]
			if width < 1 || width > d.Map.MaxWidth {
				return fmt.Errorf("platform: tenant %q request %d map step %q width %d outside [1, %d]",
					tenant, r.ID, step, width, d.Map.MaxWidth)
			}
		}
		attempts := r.Dyn.Attempts[step]
		if len(attempts) != width {
			return fmt.Errorf("platform: tenant %q request %d step %q carries %d attempt counts for width %d",
				tenant, r.ID, step, len(attempts), width)
		}
		maxRetries := 0
		if d.Retry != nil {
			maxRetries = d.Retry.MaxRetries
		}
		draws := r.Dyn.NodeDraws[step]
		if len(draws) != width {
			return fmt.Errorf("platform: tenant %q request %d step %q carries %d draw rows for width %d",
				tenant, r.ID, step, len(draws), width)
		}
		for rep, a := range attempts {
			if a < 0 || a > maxRetries {
				return fmt.Errorf("platform: tenant %q request %d step %q replica %d plans %d failures, retry bound %d",
					tenant, r.ID, step, rep, a, maxRetries)
			}
			if len(draws[rep]) != a+1 {
				return fmt.Errorf("platform: tenant %q request %d step %q replica %d carries %d draws for %d attempts",
					tenant, r.ID, step, rep, len(draws[rep]), a+1)
			}
		}
	}
	return nil
}

// dynReqState is one request's dynamic-shape serving state, indexed by
// flat node index.
type dynReqState struct {
	// dead marks pruned nodes; liveIn counts incoming edges not yet
	// determined dead (a node dies when it reaches zero).
	dead   []bool
	liveIn []int
	// repsLeft counts a map/retry node's outstanding replicas; the node
	// completes when the last replica's final attempt lands.
	repsLeft []int
	// attempt[flat][replica] is a retry node's current 0-based attempt.
	attempt [][]int
	// armed marks await steps a trigger will fire for; fired latches an
	// early trigger; waitingTrig marks readiness reached with the
	// decision deferred to the trigger.
	armed, fired, waitingTrig []bool
}

// newDynReqState builds a request's overlay state, carved from two flat
// arrays; nil for a static plan.
func newDynReqState(p *plan) *dynReqState {
	n := len(p.spec)
	if n == 0 {
		return nil
	}
	flags := make([]bool, 4*n)
	counts := make([]int, 2*n)
	d := &dynReqState{
		dead:        flags[:n:n],
		armed:       flags[n : 2*n : 2*n],
		fired:       flags[2*n : 3*n : 3*n],
		waitingTrig: flags[3*n:],
		liveIn:      counts[:n:n],
		repsLeft:    counts[n:],
		attempt:     make([][]int, n),
	}
	copy(d.liveIn, p.inDeg)
	return d
}

// pruned reports whether every member of the group is dead.
func (d *dynReqState) pruned(p *plan, group int) bool {
	for b := range p.groups[group] {
		if !d.dead[p.base[group]+b] {
			return false
		}
	}
	return true
}

// shapeKeys[w] is the resolved-shape key of a map member drawn at width
// w, formatted once so decisions build no strings.
var shapeKeys = func() []string {
	keys := make([]string, workflow.MaxMapWidth+1)
	for w := 1; w <= workflow.MaxMapWidth; w++ {
		keys[w] = fmt.Sprintf("w=%d", w)
	}
	return keys
}()

// groupShape is the resolved-shape key of a decision group at its
// readiness instant: the live map member's drawn width ("w=3"), or ""
// when nothing in the group resolved — always, for a static plan. This
// is exactly the key the synthesizer's per-(group, resolved-shape)
// variant tables carry.
func (rs *reqState) groupShape(group int) string {
	p := rs.plan
	for b, n := range p.groups[group] {
		flat := p.base[group] + b
		if p.kind[flat]&kindMap != 0 && !rs.dyn.dead[flat] {
			return shapeKeys[rs.r.Dyn.Width[n.Name]]
		}
	}
	return ""
}

// edgeDead records one incoming edge of a node as dead; the node dies
// when its last potentially-live edge does.
func (st *runState) edgeDead(rs *reqState, flat int, end time.Duration) {
	rs.dyn.liveIn[flat]--
	if rs.dyn.liveIn[flat] > 0 || rs.dyn.dead[flat] {
		return
	}
	st.markDead(rs, flat, end)
}

// markDead prunes a node: it counts as finished immediately (for both
// the request's completion and its dependents' readiness), and its
// death propagates along every outgoing edge — the cascade that prunes
// a whole unchosen subtree in one instant.
func (st *runState) markDead(rs *reqState, flat int, end time.Duration) {
	rs.dyn.dead[flat] = true
	rs.remaining--
	if rs.remaining == 0 {
		st.finishRequest(rs, end)
		return
	}
	for _, next := range rs.plan.succ[flat] {
		st.edgeDead(rs, next, end)
		if st.failed != nil {
			return
		}
	}
	st.releaseDependents(rs, flat)
}

// fireTrigger delivers an external event to its await step: if the
// step already reached readiness the deferred decision runs now; an
// early trigger latches so the step proceeds without waiting when it
// becomes ready; a trigger into a pruned branch is a no-op.
func (st *runState) fireTrigger(rs *reqState, flat int, now time.Duration) {
	if st.failed != nil {
		return
	}
	if st.tracer != nil {
		ev := reqEvent(rs, now, obs.KindTrigger)
		ev.Reason = rs.plan.name(flat)
		st.tracer.Emit(ev)
	}
	rs.dyn.fired[flat] = true
	if rs.dyn.dead[flat] || !rs.dyn.waitingTrig[flat] {
		return
	}
	rs.dyn.waitingTrig[flat] = false
	st.launchGroup(rs, rs.plan.loc[flat].group)
}
