// Command bench is the repository's benchmark: one invocation runs one
// workload once and prints every metric by name and unit, the operation
// counts, and an environment stamp; its last line of output is the JSON
// object BENCHMARK.json's contract asks for. See README.md.
//
//	bash bench/run.sh --workload serve_unique --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --selfcheck 5 --seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"percival/internal/tensor"
)

// setupRuns is how many times an untraced run sets the workload up; setup_s
// is the median, which drops the first (cold-heap, page-faulting) one.
const setupRuns = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	setups   int // 0: setupRuns (the smoke test sets up once)
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// One P, before any program code runs (run.sh also exports GOMAXPROCS=1
	// so package initialisers see it): two serve workers and a GEMM pool
	// fighting over two shared vCPUs spread runs by 15%; one P spreads 4%.
	runtime.GOMAXPROCS(1)

	var cfg runConfig
	var trace, selfcheck int
	var list, varySeed bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics instead")
	flag.StringVar(&cfg.outDir, "out", defaultOutDir(), "directory for trace files")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run every workload N times in two alternating sets and compare them")
	flag.BoolVar(&varySeed, "vary-seed", false, "selfcheck: run i of each set uses seed+i, as the accepting driver does")
	flag.BoolVar(&list, "list", false, "list workloads and exit")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case list:
		for _, w := range workloads {
			fmt.Printf("%-20s %s\n", w.Name, w.Why)
		}
	case selfcheck > 0:
		if !runSelfcheck(selfcheck, cfg, varySeed) {
			os.Exit(1)
		}
	default:
		if cfg.seconds < 1 {
			fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
			os.Exit(2)
		}
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// defaultOutDir keeps trace files under bench/ whether the harness is started
// from the repository root (run.sh) or from bench/ itself (go run .).
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// runWorkload runs one workload once, writes the human-readable report to w
// and returns the result line.
func runWorkload(cfg runConfig, w io.Writer) (*result, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (try -list)", cfg.workload)
	}
	env := envStamp()
	can := newCanary()
	calib0 := can.measure()

	runs := setupRuns
	if cfg.setups > 0 {
		runs = cfg.setups
	}
	if cfg.trace {
		runs = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var rg rig
	var setups []float64
	for i := 0; i < runs; i++ {
		if rg != nil {
			// Drop the previous rig completely — two collections empty the
			// arena sync.Pools, too — so every set-up starts from the same
			// heap and peak_rss_mb is one rig's footprint, not a residue of
			// how the collector happened to interleave with three of them.
			rg.close()
			rg = nil
			runtime.GC()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if rg, err = spec.new(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	if err := rg.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference outputs: %w", spec.Name, err)
	}

	d := time.Duration(cfg.seconds) * time.Second
	res := &result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	var specs []metricSpec
	var p *phase
	var traceLine string
	if !cfg.trace {
		p = rg.run(d, nil)
		specs = endToEnd
		values = map[string]float64{
			"frames_per_s": p.fps,
			"frame_p50_ms": p.p50MS,
			"peak_rss_mb":  peakRSSMB(),
			"setup_s":      median(setups),
		}
	} else {
		// the same phase twice, half the time each: first as the untraced
		// run sees it, then with spans, so tracing's own cost is on record
		plain := rg.run(d/2, nil)
		tr := newTracer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p = rg.run(d/2, tr)
		runtime.ReadMemStats(&m1)
		var err error
		if values, err = runLadder(cfg.seed, rg.sampleFrames(), tr); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		phaseLayers(values, p, plain)
		values["proc.cpu_ms_per_frame"] = perFrame(p.cpuMS, p.frames)
		values["proc.alloc_bytes_per_frame"] = perFrame(float64(m1.TotalAlloc-m0.TotalAlloc), p.frames)
		values["proc.gc_count"] = float64(m1.NumGC - m0.NumGC)
		specs = perLayer
		path, err := tr.write(cfg.outDir, spec.Name, env)
		if err != nil {
			return nil, err
		}
		traceLine = fmt.Sprintf("trace      %s (%d spans)\n", path, len(tr.spans))
	}
	calib1 := can.measure()
	if cfg.trace {
		values["calib.ref_ms"] = (calib0 + calib1) / 2
	}

	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0 && p.attempted > 0
	for _, s := range specs {
		v := values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}

	fmt.Fprintf(w, "workload   %s  seed %d  %d s  trace %v\n", spec.Name, cfg.seed, cfg.seconds, cfg.trace)
	printEnv(w, "env        ", env)
	fmt.Fprintf(w, "operations sent %d  ok %d  failed %d  (%d latency samples, phase %.2f s)\n",
		p.attempted, p.attempted-p.failed, p.failed, len(p.latMS), p.wall.Seconds())
	fmt.Fprintf(w, "canary     %.3f ms at start, %.3f ms at end\n", calib0, calib1)
	for _, s := range specs {
		fmt.Fprintf(w, "metric     %-36s %14.4f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Fprint(w, traceLine)
	return res, nil
}

func perFrame(total float64, frames int64) float64 {
	if frames <= 0 {
		return 0
	}
	return total / float64(frames)
}

// phaseLayers adds the per-layer metrics that come from the traced timed
// phase itself (counters the program keeps, tails, CPU shares) to the
// ladder's, replacing the ladder's stand-ins where the workload exercises
// the real thing.
func phaseLayers(m map[string]float64, p, plain *phase) {
	m["serve.frame_p90_ms"], _ = percentileFloor(p.latMS, 0.90, 10)
	m["serve.frame_p99_ms"], _ = percentileFloor(p.latMS, 0.99, 10)
	if c := p.serve; c != nil {
		m["serve.shed"] = float64(c.shed)
		if c.batches > 0 {
			m["serve.batch_fill_mean"] = float64(c.classified) / float64(c.batches)
		}
		if c.submitted > 0 {
			m["serve.cache_hit_share"] = float64(c.hits) / float64(c.submitted)
			m["serve.coalesced_share"] = float64(c.coalesced) / float64(c.submitted)
		}
		if ns := float64(p.wall.Nanoseconds()) * float64(c.lanes); ns > 0 {
			m["serve.lane_busy_share"] = float64(c.busyNS) / ns
		}
	}
	if p.wire != nil {
		wireMetrics(m, p.wire)
	}
	if n := p.page; n != nil {
		m["browser.page_base_ms"] = n.baseMS
		m["browser.frames_inspected"] = float64(n.inspected)
		if n.async {
			m["browser.render_overhead_async_ms"] = n.overheadMS
		} else {
			m["browser.render_overhead_sync_ms"] = n.overheadMS
			m["browser.render_overhead_paper_pct"] = n.paperPct
		}
	}
	// what one frame's forward pass costs at the batch size the phase ran at
	engine := "fp32"
	if p.int8 {
		engine = "int8"
	}
	forward := m["nn.forward_"+engine+"_ms"]
	if m["serve.batch_fill_mean"] >= 1.5 {
		forward = m["nn.forward_"+engine+"_b2_ms_per_frame"]
	}
	if p.cpuMS > 0 {
		m["proc.model_cpu_share"] = float64(p.modelFrames) * forward / p.cpuMS
	}
	if plain.fps > 0 {
		m["trace.overhead_share"] = 1 - p.fps/plain.fps
	}
}

// printEnv writes the environment stamp, one sorted key per line.
func printEnv(w io.Writer, prefix string, env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%-12s %s\n", prefix, k, env[k])
	}
}

// envStamp records what produced the numbers.
func envStamp() map[string]string {
	env := map[string]string{
		"go":          runtime.Version(),
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"gemm_kernel": tensor.GemmKernelName(),
		"git_sha":     "unknown",
		"cpu_model":   "unknown",
	}
	// Ask git only where the working directory is itself a checkout: the
	// accepting driver's copy is not, and git would wander up out of it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			env["git_sha"] = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
