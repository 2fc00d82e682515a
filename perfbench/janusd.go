package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"janus/internal/catalog"
	"janus/internal/experiment"
	"janus/internal/hints"
	"janus/internal/httpapi"
	"janus/internal/synth"
)

const (
	// janusdTenants is the catalog's tenant count; each tenant holds the
	// ia, va and dag bundles.
	janusdTenants = 400
	// janusdSetupReps is how many times set-up (synthesis, catalog
	// build, daemon boot) runs; setup_s is the median.
	janusdSetupReps = 3
	// cycleDecides is how many decides the reloading connection sends
	// between two catalog pushes: one cycle is the unit wall_s times.
	cycleDecides = 2048
	// ringSize is the length of each connection's pre-encoded request
	// stream, replayed in a loop.
	ringSize = 8192
	// verifyEvery picks the sampled responses: every verifyEvery-th
	// request of a connection's first pass over its ring, up to
	// verifyPerConn per connection, so one connection alone yields 200.
	verifyEvery   = 37
	verifyPerConn = 200
	adminKey      = "perfbench-admin"
	// The one (tenant, workflow) pair that differs between the two
	// catalog versions: tenant 0's ia entry, bundles[changedBase] in A
	// and the last bundle in B.
	changedTenant = 0
	changedBase   = 0
)

// catalogSet is the janusd workload's synthesized state: the distinct
// bundles and the two catalog versions the run alternates between.
type catalogSet struct {
	bundles   []*hints.Bundle // ia, va, dag, then the alternate of the changed pair
	workflows []string        // workflow names of bundles[0:3]
	versions  [2][]byte       // marshalled catalog A and B
}

func tenantName(i int) string { return fmt.Sprintf("t%03d", i) }
func tenantKey(i int) string  { return fmt.Sprintf("key-%03d", i) }

// buildCatalogs synthesizes the bundles and marshals both catalog versions.
func buildCatalogs(seed uint64, rec *Recorder, parent int) (*catalogSet, error) {
	tenants, err := experiment.ReplayTenants()
	if err != nil {
		return nil, err
	}
	s := experiment.NewSuiteWith(quickConfig(seed))
	cs := &catalogSet{}
	for _, mt := range tenants {
		id := rec.Start("profile.Profiles", "setup", parent)
		_, err := s.Profiles(mt.Workflow, 1)
		rec.End(id)
		if err != nil {
			return nil, err
		}
		id = rec.Start("synth.Deployment", "setup", parent)
		d, err := s.Deployment(mt.Workflow, 1, synth.ModeJanus, 1)
		rec.End(id)
		if err != nil {
			return nil, err
		}
		cs.bundles = append(cs.bundles, d.Bundle())
		cs.workflows = append(cs.workflows, d.Bundle().Workflow)
	}
	id := rec.Start("synth.Deployment", "setup", parent)
	alt, err := s.Deployment(tenants[changedBase].Workflow, 1, synth.ModeJanus, regenWeight)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	cs.bundles = append(cs.bundles, alt.Bundle())

	id = rec.Start("catalog.build", "setup", parent)
	defer rec.End(id)
	for v := range cs.versions {
		f := &catalog.File{Version: v + 1, AdminKey: adminKey, Tenants: make(map[string]*catalog.Tenant)}
		for i := 0; i < janusdTenants; i++ {
			t := &catalog.Tenant{APIKey: tenantKey(i), Workflows: make(map[string]*catalog.Entry)}
			for j, wf := range cs.workflows {
				b := cs.bundles[j]
				if v == 1 && i == changedTenant && j == changedBase {
					b = alt.Bundle()
				}
				t.Workflows[wf] = &catalog.Entry{Bundle: b}
			}
			f.Tenants[tenantName(i)] = t
		}
		data, err := f.Marshal()
		if err != nil {
			return nil, err
		}
		cs.versions[v] = data
	}
	return cs, nil
}

// daemon is one running janusd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

// startDaemon boots janusd on a loopback port the kernel picks, serving
// the catalog file, and waits until /v1/healthz answers.
func startDaemon(bin, catalogPath string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-catalog", catalogPath)
	// The kernel kills the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start janusd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !found {
				found = true
				addrc <- strings.TrimSpace(rest)
			}
		}
		if !found {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("janusd exited before listening")
		}
		d.addr = addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("janusd did not report its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("janusd not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it does not exit in
// time, and waits for it and its log reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // a drained daemon exits 0; a killed one is expected here
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	<-d.drained
}

// setupJanusd is one set-up: synthesis, catalog build, daemon boot.
func setupJanusd(rc runConfig, rec *Recorder, dir string) (*catalogSet, *daemon, error) {
	root := rec.Start("janusd.setup", "setup", 0)
	defer rec.End(root)
	cs, err := buildCatalogs(subSeed(rc.seed, 0), rec, root)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(path, cs.versions[0], 0o644); err != nil {
		return nil, nil, err
	}
	id := rec.Start("janusd.boot", "setup", root)
	d, err := startDaemon(rc.janusd, path)
	rec.End(id)
	return cs, d, err
}

// wireReq is one pre-encoded decide request.
type wireReq struct {
	tenant int
	in     decideInput // in.bundle indexes catalogSet.bundles as of version A
	key    string
	body   []byte
}

// drawStream draws one connection's request ring: Zipf-popular tenants,
// a uniform workflow, and budgets from drawDecide.
func drawStream(seed uint64, conn int, cs *catalogSet) ([]wireReq, error) {
	r := rand.New(rand.NewPCG(seed, uint64(conn)+1))
	zipf := rand.NewZipf(r, 1.1, 1, janusdTenants-1)
	ring := make([]wireReq, ringSize)
	for i := range ring {
		t := int(zipf.Uint64())
		j := r.IntN(len(cs.workflows))
		in := drawDecide(r, j, cs.bundles[j])
		body, err := json.Marshal(httpapi.DecideRequest{Workflow: cs.workflows[j], Suffix: in.group, RemainingMs: in.remainingMs, Shape: in.shape})
		if err != nil {
			return nil, err
		}
		ring[i] = wireReq{tenant: t, in: in, key: "Bearer " + tenantKey(t), body: body}
	}
	return ring, nil
}

// sample is one response kept for verification.
type sample struct {
	req  wireReq
	body []byte
}

// connStats is one connection's record of the closed loop.
type connStats struct {
	starts    []time.Duration // decide start, since the phase began
	latencies []time.Duration
	traced    []bool // whether the decide ran in a traced cycle
	failed    int
	errs      []string
	samples   []sample
}

// loopResult is the closed loop's record; reload instants are relative
// to the loop's start.
type loopResult struct {
	conns        []*connStats
	cycles       []time.Duration // per completed cycle
	traced       []bool          // whether each cycle recorded spans
	reloads      [][2]time.Duration
	reloadOK     int
	reloadFailed int
	elapsed      time.Duration
}

// closedLoop drives janusd with one keep-alive connection per CPU, each
// sending its next decide only after the previous reply. Connection 0
// pushes the other catalog version after every cycleDecides decides; the
// run ends at the first cycle boundary after the deadline. With rec set,
// every other cycle, the first included, records a span per request.
func closedLoop(addr string, cs *catalogSet, rings [][]wireReq, dur time.Duration, rec *Recorder) *loopResult {
	res := &loopResult{conns: make([]*connStats, len(rings))}
	var stop atomic.Bool
	var cycle atomic.Int64 // open traced cycle span, 0 when untraced
	url := "http://" + addr
	if rec != nil {
		cycle.Store(int64(rec.Start("janusd.cycle", "pass", 0)))
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range rings {
		res.conns[c] = &connStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := res.conns[c]
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			ring := rings[c]
			version := 0
			cycleStart := start
			cycleSpan := int(cycle.Load())
			for i := 0; !stop.Load(); i++ {
				wr := ring[i%len(ring)]
				keep := i < len(ring) && i%verifyEvery == 0 && len(st.samples) < verifyPerConn
				id := 0
				parent := int(cycle.Load())
				if parent != 0 {
					id = rec.Start("httpapi.decide", "pass", parent)
				}
				t0 := time.Now()
				body, err := send(client, http.MethodPost, url+"/v1/decide", wr.key, wr.body, keep)
				lat := time.Since(t0)
				rec.End(id)
				st.starts = append(st.starts, t0.Sub(start))
				st.latencies = append(st.latencies, lat)
				st.traced = append(st.traced, parent != 0)
				if err != nil {
					st.failed++
					if len(st.errs) < 5 {
						st.errs = append(st.errs, err.Error())
					}
				} else if keep {
					st.samples = append(st.samples, sample{wr, body})
				}
				if c != 0 || (i+1)%cycleDecides != 0 {
					continue
				}
				version = 1 - version
				rid := 0
				if cycleSpan != 0 {
					rid = rec.Start("catalog.reload", "pass", cycleSpan)
				}
				r0 := time.Now()
				_, err = send(client, http.MethodPut, url+"/v1/catalog", "Bearer "+adminKey, cs.versions[version], false)
				r1 := time.Now()
				rec.End(rid)
				res.reloads = append(res.reloads, [2]time.Duration{r0.Sub(start), r1.Sub(start)})
				if err != nil {
					res.reloadFailed++
					st.errs = append(st.errs, "reload: "+err.Error())
				} else {
					res.reloadOK++
				}
				rec.End(cycleSpan)
				res.cycles = append(res.cycles, r1.Sub(cycleStart))
				res.traced = append(res.traced, cycleSpan != 0)
				if r1.After(deadline) {
					stop.Store(true)
					res.elapsed = r1.Sub(start)
					cycle.Store(0)
					break
				}
				cycleStart, cycleSpan = r1, 0
				if rec != nil && len(res.cycles)%2 == 0 {
					cycleSpan = rec.Start("janusd.cycle", "pass", 0)
				}
				cycle.Store(int64(cycleSpan))
			}
		}(c)
	}
	wg.Wait()
	return res
}

// send makes one request and fails on a transport error or any status
// other than 200; keep returns the response body.
func send(client *http.Client, method, url, auth string, body []byte, keep bool) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", auth)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []byte
	if keep || resp.StatusCode != http.StatusOK {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// runJanusd runs the janusd workload.
func runJanusd(rc runConfig, rec *Recorder) (*outcome, error) {
	if rc.janusd == "" {
		return nil, fmt.Errorf("janusd workload needs --janusd")
	}
	dir, err := filepath.Abs(filepath.Join(rc.out, "janusd", strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	reps := janusdSetupReps
	if rec != nil {
		reps = 1
	}
	var setups []time.Duration
	var cs *catalogSet
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		cs, d, err = setupJanusd(rc, rec, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	defer d.stop()

	rings := make([][]wireReq, runtime.NumCPU())
	for c := range rings {
		if rings[c], err = drawStream(rc.seed, c, cs); err != nil {
			return nil, err
		}
	}
	var before promScrape
	if rec != nil {
		if before, err = scrape(d); err != nil {
			return nil, err
		}
	}
	res := closedLoop(d.addr, cs, rings, rc.seconds, rec)
	var after promScrape
	if rec != nil {
		if after, err = scrape(d); err != nil {
			return nil, err
		}
	}

	out := &outcome{metrics: make(map[string]float64)}
	decides := 0
	succeeded := res.reloadOK
	for _, st := range res.conns {
		decides += len(st.latencies)
		out.attempted += len(st.latencies)
		out.failed += st.failed
		succeeded += len(st.latencies) - st.failed
		for _, e := range st.errs {
			out.fail("%s", e)
		}
	}
	out.attempted += len(res.reloads)
	out.failed += res.reloadFailed
	if out.attempted != succeeded+out.failed {
		out.fail("attempted %d != succeeded %d + failed %d", out.attempted, succeeded, out.failed)
	}
	verified, err := verifySamples(cs, res.conns, out)
	if err != nil {
		return nil, err
	}
	if verified < 200 {
		out.fail("only %d sampled responses to verify, want 200", verified)
	}
	if len(res.cycles) == 0 {
		return nil, fmt.Errorf("janusd: no cycle completed")
	}
	if rec != nil {
		rss, err := procStatusMB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM")
		if err != nil {
			return nil, err
		}
		out.metrics["peak_rss_mb"] = rss
		return out, traceJanusd(cs, rings, res, before, after, rec, out)
	}
	hits, mc, err := plannedOutcome(cs, rings)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["setup_s"] = median(seconds(setups))
	m["wall_s"] = median(seconds(res.cycles))
	m["sim.slo_attainment"] = hits
	m["sim.mean_millicores"] = mc
	fmt.Fprintf(os.Stderr, "perfbench: janusd: %d decides, %d reloads, %d cycles\n", decides, len(res.reloads), len(res.cycles))
	return out, nil
}

// verifySamples checks every kept response against adapter.DecideShaped
// on the same bundle and input in-process. The changed pair may have been
// served by either catalog version, so either version's answer passes.
// It returns how many responses it checked.
func verifySamples(cs *catalogSet, conns []*connStats, out *outcome) (int, error) {
	ads, err := adapters(cs.bundles)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, st := range conns {
		for _, s := range st.samples {
			var got httpapi.DecideResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				out.fail("sample response %q: %v", s.body, err)
				continue
			}
			candidates := []int{s.req.in.bundle}
			if s.req.tenant == changedTenant && s.req.in.bundle == changedBase {
				candidates = append(candidates, len(cs.bundles)-1)
			}
			ok := false
			for _, b := range candidates {
				in := s.req.in
				in.bundle = b
				want, err := decide(ads, in)
				if err != nil {
					return 0, err
				}
				ok = ok || (httpapi.DecideResponse{Millicores: want.Millicores, Hit: want.Hit, Percentile: want.Percentile} == got)
			}
			if !ok {
				out.fail("decide %s for tenant %d: janusd answered %+v, in-process adapter disagrees", s.req.body, s.req.tenant, got)
			}
			n++
		}
	}
	return n, nil
}

// plannedOutcome is the decide stream's adapter outcome against catalog
// version A, computed in-process: the share of decisions answered from a
// hint table (an SLO-meeting plan, the rest escalate) and the mean
// allocation granted.
func plannedOutcome(cs *catalogSet, rings [][]wireReq) (hitShare, meanMc float64, err error) {
	ads, err := adapters(cs.bundles)
	if err != nil {
		return 0, 0, err
	}
	n, hits, mc := 0, 0, 0
	for _, ring := range rings {
		for _, wr := range ring {
			d, err := decide(ads, wr.in)
			if err != nil {
				return 0, 0, err
			}
			n++
			mc += d.Millicores
			if d.Hit {
				hits++
			}
		}
	}
	return float64(hits) / float64(n), float64(mc) / float64(n), nil
}

// promScrape is the part of /v1/prometheus the benchmark reads.
type promScrape struct {
	buckets  map[float64]float64 // janusd_decide_latency_us cumulative, by upper bound (+Inf included)
	statuses map[string]float64  // janusd_http_requests_total by status
	outcomes map[string]float64  // janusd_decisions_total by outcome
}

func scrape(d *daemon) (promScrape, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+d.addr+"/v1/prometheus", nil)
	if err != nil {
		return promScrape{}, err
	}
	req.Header.Set("Authorization", "Bearer "+adminKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return promScrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return promScrape{}, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the three families the benchmark uses from Prometheus
// text exposition.
func parseProm(r io.Reader) (promScrape, error) {
	p := promScrape{buckets: map[float64]float64{}, statuses: map[string]float64{}, outcomes: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return p, fmt.Errorf("prometheus line %q: %w", line, err)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		switch name {
		case "janusd_decide_latency_us_bucket":
			le := promLabel(labels, "le")
			bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses to +Inf
			if err != nil {
				return p, fmt.Errorf("prometheus bucket %q: %w", le, err)
			}
			p.buckets[bound] += v
		case "janusd_http_requests_total":
			p.statuses[promLabel(labels, "status")] += v
		case "janusd_decisions_total":
			p.outcomes[promLabel(labels, "outcome")] += v
		}
	}
	return p, sc.Err()
}

func promLabel(labels, key string) string {
	_, rest, ok := strings.Cut(labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// histP50 interpolates the median of the histogram delta after - before
// linearly within the bucket holding it.
func histP50(before, after map[float64]float64) float64 {
	bounds := make([]float64, 0, len(after))
	for b := range after {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	lo, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := after[b] - before[b]
		if cum >= total/2 && cum > prevCum {
			if math.IsInf(b, 1) { // the +Inf bucket: report its lower edge
				return lo
			}
			return lo + (b-lo)*(total/2-prevCum)/(cum-prevCum)
		}
		lo, prevCum = b, cum
	}
	return lo
}

// traceJanusd fills the per-layer metrics of the traced janusd run.
func traceJanusd(cs *catalogSet, rings [][]wireReq, res *loopResult, before, after promScrape, rec *Recorder, out *outcome) error {
	m := out.metrics
	// Latencies come from the untraced cycles only, so spans do not
	// inflate them.
	var lats, reloads []float64
	var plainTime time.Duration
	for i, c := range res.cycles {
		if !res.traced[i] {
			plainTime += c
		}
	}
	for _, st := range res.conns {
		for i, l := range st.latencies {
			if !st.traced[i] {
				lats = append(lats, float64(l)/float64(time.Microsecond))
			}
		}
	}
	for i, r := range res.reloads {
		if !res.traced[i] {
			reloads = append(reloads, float64(r[1]-r[0])/float64(time.Millisecond))
		}
	}
	m["janusd.decide_per_s"] = float64(len(lats)) / plainTime.Seconds()
	m["janusd.decide_p50_us"] = median(lats)
	if p, ok := percentile(lats, 99); ok {
		m["janusd.decide_p99_us"] = p
	}
	m["janusd.decide_samples"] = float64(len(lats))
	m["janusd.reload_p50_ms"] = median(reloads)
	m["janusd.reload_samples"] = float64(len(reloads))
	spans := rec.Spans()
	profBusy, profCalls := busy(spans, "setup", "profile.Profiles")
	deployBusy, deployCalls := busy(spans, "setup", "synth.Deployment")
	m["profile.busy_s"] = profBusy.Seconds()
	m["profile.calls"] = float64(profCalls)
	m["synth.deploy_busy_s"] = deployBusy.Seconds()
	m["synth.deploy_calls"] = float64(deployCalls)

	handler := histP50(before.buckets, after.buckets)
	m["httpapi.handler_p50_us"] = handler
	m["httpapi.wire_overhead_us"] = median(lats) - handler
	for status, v := range after.statuses {
		d := v - before.statuses[status]
		m["httpapi.requests"] += d
		if status != "200" {
			m["httpapi.non200"] += d
		}
	}
	hits := after.outcomes["hit"] - before.outcomes["hit"]
	misses := after.outcomes["miss"] - before.outcomes["miss"]
	m["adapter.decisions"] = hits + misses
	if hits+misses > 0 {
		m["adapter.hit_ratio"] = hits / (hits + misses)
	}

	// Probes: the pushed bytes parsed and loaded in-process, and the
	// request stream replayed through the adapter with no wire.
	var parse, load []float64
	reg := catalog.NewRegistry()
	for i := 0; i < 6; i++ {
		data := cs.versions[i%2]
		id := rec.Start("catalog.parse_validate", "probe", 0)
		t0 := time.Now()
		f, err := catalog.Parse(data)
		parse = append(parse, float64(time.Since(t0))/float64(time.Millisecond))
		rec.End(id)
		if err != nil {
			return err
		}
		id = rec.Start("catalog.load", "probe", 0)
		t0 = time.Now()
		_, _, err = reg.Load(f)
		if i > 0 { // the first Load builds every adapter; reloads carry them
			load = append(load, float64(time.Since(t0))/float64(time.Millisecond))
		}
		rec.End(id)
		if err != nil {
			return err
		}
	}
	m["catalog.parse_validate_ms"] = median(parse)
	m["catalog.load_ms"] = median(load)
	m["catalog.bytes"] = float64(len(cs.versions[0]))
	var stream []decideInput
	for _, ring := range rings {
		for _, wr := range ring {
			stream = append(stream, wr.in)
		}
	}
	id := rec.Start("adapter.decide_probe", "probe", 0)
	perDecide, err := timeDecides(cs.bundles, stream)
	rec.End(id)
	if err != nil {
		return err
	}
	m["adapter.decide_ns"] = median(perDecide)

	var during []float64
	for _, st := range res.conns {
		for i, s := range st.starts {
			e := s + st.latencies[i]
			for _, r := range res.reloads {
				if s < r[1] && e > r[0] {
					during = append(during, float64(st.latencies[i])/float64(time.Microsecond))
					break
				}
			}
		}
	}
	if p, ok := percentile(during, 99); ok {
		m["janusd.decide_p99_during_reload_us"] = p
	}
	var plain, traced []float64
	for i, c := range res.cycles {
		if res.traced[i] {
			traced = append(traced, c.Seconds())
		} else {
			plain = append(plain, c.Seconds())
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		m["obs.trace_overhead_ratio"] = median(traced) / median(plain)
		for layer, d := range selfTimes(spans, "pass") {
			m["self_s."+layer] = d.Seconds() / float64(len(traced))
		}
	}
	m["fail_ratio"] = failRatio(out.attempted, out.failed)
	return nil
}
