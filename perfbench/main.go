// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no spans recorded. With --trace 1 the run records spans around every
// call into a layer and reports per-layer metrics instead; the spans are
// written to <out>/traces/<workload>-seed<seed>.json. Workloads, metrics
// and their meaning per workload are listed in perfbench/METHOD.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The end-to-end metrics, reported by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim.slo_attainment", "ratio"},
	{"sim.mean_millicores", "millicores"},
}

// The per-layer metrics, reported by every workload with --trace 1. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"peak_rss_mb", "MB"},
	{"profile.busy_s", "s"},
	{"profile.calls", "count"},
	{"synth.deploy_busy_s", "s"},
	{"synth.deploy_calls", "count"},
	{"synth.regen_busy_s", "s"},
	{"synth.regen_calls", "count"},
	{"synth.regen_useful_ratio", "ratio"},
	{"platform.serve_s", "s"},
	{"platform.engine_s", "s"},
	{"platform.sim_requests", "count"},
	{"platform.host_us_per_sim_req", "us"},
	{"platform.parked", "count"},
	{"platform.cold_starts", "count"},
	{"platform.pod_seconds", "s"},
	{"platform.peak_pods", "count"},
	{"autoscale.pool_churn", "count"},
	{"autoscale.swaps", "count"},
	{"adapter.decisions", "count"},
	{"adapter.hit_ratio", "ratio"},
	{"adapter.decide_ns", "ns"},
	{"httpapi.handler_p50_us", "us"},
	{"httpapi.wire_overhead_us", "us"},
	{"httpapi.requests", "count"},
	{"httpapi.non200", "count"},
	{"catalog.parse_validate_ms", "ms"},
	{"catalog.load_ms", "ms"},
	{"catalog.bytes", "bytes"},
	{"janusd.decide_per_s", "1/s"},
	{"janusd.decide_p50_us", "us"},
	{"janusd.decide_p99_us", "us"},
	{"janusd.decide_samples", "count"},
	{"janusd.reload_p50_ms", "ms"},
	{"janusd.reload_samples", "count"},
	{"janusd.decide_p99_during_reload_us", "us"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"self_s.experiment", "s"},
	{"self_s.profile", "s"},
	{"self_s.synth", "s"},
	{"self_s.platform", "s"},
	{"self_s.janusd", "s"},
	{"self_s.httpapi", "s"},
	{"self_s.catalog", "s"},
}

type metricDef struct{ name, unit string }

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	janusd   string // path of the janusd binary
	out      string // directory for spans and recorded digests
}

// outcome is what a workload reports; metrics holds bare values keyed by
// metric name.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var rc runConfig
	var traceFlag int
	flag.StringVar(&rc.workload, "workload", "", "workload: fleet, mix, trigger or janusd")
	flag.Uint64Var(&rc.seed, "seed", 1, "seed all inputs derive from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&rc.janusd, "janusd", "", "path of the janusd binary (janusd workload)")
	flag.StringVar(&rc.out, "out", ".bench_build", "directory for span files and recorded digests")
	summarizeFlag := flag.Bool("summarize", false, "read result lines on stdin and print each metric's median and quartiles")
	flag.Parse()
	if *summarizeFlag {
		if err := summarize(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rc.seconds = time.Duration(*seconds) * time.Second
	rc.trace = traceFlag == 1
	if err := run(rc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(rc runConfig) error {
	if rc.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var rec *Recorder
	if rc.trace {
		rec = newRecorder(rc.workload)
	}
	var out *outcome
	var err error
	switch rc.workload {
	case "janusd":
		out, err = runJanusd(rc, rec)
	case "fleet", "mix", "trigger":
		var specs map[string]*gridSpec
		if specs, err = gridSpecs(); err == nil {
			out, err = runGrid(rc, specs[rc.workload], rec)
		}
	default:
		return fmt.Errorf("unknown workload %q", rc.workload)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		dir := filepath.Join(rc.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := rec.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))); err != nil {
			return err
		}
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res, err := buildResult(out, defs, rc.trace)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildResult attaches units and checks every metric the mode promises
// is present. Per-layer metrics of layers the workload does not exercise
// default to 0; a missing end-to-end metric is a benchmark bug.
func buildResult(out *outcome, defs []metricDef, zeroFill bool) (*result, error) {
	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return res, nil
}

// summary is one metric's figures over a set of runs.
type summary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// summarize reads result lines, one run each, and prints every metric's
// median, quartiles and spread (interquartile distance over the median)
// as one JSON object: the figures a baseline records and the bounds in
// BENCHMARK.json are compared with.
func summarize(r io.Reader, w io.Writer) error {
	values := make(map[string][]float64)
	units := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return fmt.Errorf("result line: %w", err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("a run failed its checks: %s", sc.Text())
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	out := make(map[string]summary, len(values))
	for name, xs := range values {
		q1, q3, err := quartiles(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		s := summary{Unit: units[name], Runs: len(xs), Median: median(xs), Q1: q1, Q3: q3}
		if s.Median != 0 {
			s.Spread = (q3 - q1) / math.Abs(s.Median)
		}
		out[name] = s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// splitmix64 derives well-spread seeds from small ones.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed is the suite seed of a run's j-th input set.
func subSeed(seed uint64, j int) uint64 {
	return splitmix64(splitmix64(seed) + uint64(j))
}

// procStatusMB reads one kB field of /proc/<pid>/status in MB, such as
// VmHWM, the peak resident set.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/%s/status", field, pid)
}

// checkDigest compares a simulated-result digest with the one recorded by
// an earlier run of the same workload and suite seed in this checkout,
// recording it when none exists. Identical inputs must give identical
// rows, in one run and across runs.
func checkDigest(dir, workload string, seed uint64, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", workload, seed))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(digest), 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != digest {
		return fmt.Errorf("%s seed %d: digest %.12s differs from the recorded %.12s", workload, seed, digest, prev)
	}
	return nil
}
