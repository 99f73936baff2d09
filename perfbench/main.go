// Command perfbench is FlyMon-Go's benchmark: it runs one named workload
// from a seed, checks the outputs, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON line.
//
//	go run . --workload replay-9task --seed 1 --seconds 10 --trace 0
//
// Workloads: replay-9task, reconfig-live, fleet-query. See README.md for
// why each was chosen and which metric each layer should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

var workloads = []string{"replay-9task", "reconfig-live", "fleet-query"}

const (
	setupReps = 3
	// Sizes of the short phases that give every workload the metrics its
	// main phase does not exercise (see README.md).
	shortReconfigOps = 297
	shortQueryRounds = 200
	// The short query phase's fleet: big enough that a query takes
	// milliseconds, so host jitter of a few hundred microseconds does not
	// decide its tail.
	shortQueryFleet = 8
	// Control ops are sent open loop, one every 25 ms (40/s).
	livePeriod = 25 * time.Millisecond
	// The replay oracle check runs over this many leading frames.
	oracleFrames = 1 << 18
	fleetSize    = 32
	tracerSpans  = 1 << 17
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the synthesized trace")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured seconds of the main phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the trace file and span dumps")
	flag.Parse()
	opt.trace = traceFlag == 1
	if !validWorkload(opt.workload) || opt.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(opt)
	if err != nil {
		logf("%s: %v", opt.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineFacts is printed with every result and stored in span dumps.
type machineFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func machine(opt options) machineFacts {
	return machineFacts{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opt.seed, Workload: opt.workload,
		Seconds: opt.seconds, Traced: opt.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rigs is everything one pass of a workload runs against.
type rigs struct {
	nine     *controlplane.Controller // replay-9task's 9-task controller
	rc       *reconfigRig
	fl       *fleetRig
	tracer   *tracing.Tracer
	rpcStats *telemetry.RPCStats
}

// buildRigs starts the workload's daemons and controllers. A non-nil
// tracer is attached to every server, client and the fleet.
func buildRigs(workload string, tr *mmtrace.Trace, tracer *tracing.Tracer) (*rigs, error) {
	r := &rigs{tracer: tracer}
	if tracer != nil {
		r.rpcStats = &telemetry.RPCStats{}
	}
	var err error
	if workload == "replay-9task" {
		if r.nine, err = newLoadedController(9, runtime.NumCPU(), 9); err != nil {
			return nil, err
		}
	}
	if r.rc, err = newReconfigRig(tracer, r.rpcStats); err != nil {
		r.close()
		return nil, err
	}
	n := shortQueryFleet
	if workload == "fleet-query" {
		n = fleetSize
	}
	if r.fl, err = newFleetRig(tr, n, tracer, r.rpcStats); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rigs) close() {
	if r.fl != nil {
		r.fl.close()
	}
	if r.rc != nil {
		r.rc.close()
	}
	if r.nine != nil {
		r.nine.Close()
	}
}

// passResult is one pass over a workload's phases.
type passResult struct {
	replayMpps float64
	rc         reconfigResult
	q          queryResult
	heapMB     float64
	ops        opCount
	checkErr   error

	// Traced pass only.
	lt             layerTimes
	ltWall         time.Duration
	ltWorkers      int
	allocsPerFrame float64
	ring           mmtrace.RingStats
	probes         probeResult
}

// runPass runs the workload's main phase for opt.seconds, then the short
// phases that measure the metrics the main phase does not exercise.
func runPass(opt options, tr *mmtrace.Trace, r *rigs, check bool) (*passResult, error) {
	traced := r.tracer != nil
	p := &passResult{}
	dur := time.Duration(opt.seconds) * time.Second
	if check && r.nine != nil {
		oracle, err := newLoadedController(9, 1, 9)
		if err != nil {
			return nil, err
		}
		p.checkErr = checkReplayOracle(r.nine, oracle, tr, oracleFrames)
		oracle.Close()
		for _, t := range r.nine.Tasks() {
			if err := r.nine.ResetTaskCounters(t.ID); err != nil {
				return nil, err
			}
		}
	}
	p.heapMB = liveHeapMB()

	switch opt.workload {
	case "replay-9task":
		rep, err := startReplay(r.nine, tr, traced)
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Second) // warm-up: pool spin-up, caches
		a0 := heapAllocs()
		mpps, pkts := rep.sampleRate(dur, 250*time.Millisecond)
		a1 := heapAllocs()
		rep.stop()
		p.heapMB = max(p.heapMB, liveHeapMB())
		p.ltWall = rep.wall
		p.replayMpps = mpps
		if traced {
			p.lt, p.ltWorkers = rep.timed.totals(), r.nine.Workers()
			p.allocsPerFrame = float64(a1-a0) / float64(pkts)
			p.ring = rep.rep.Stats().Ring
		}
		if err := p.shortReconfig(r, tr); err != nil {
			return nil, err
		}
		p.shortQuery(r)

	case "reconfig-live":
		rep, err := startReplay(r.rc.d.ctrl, tr, traced)
		if err != nil {
			return nil, err
		}
		r.rc.replay = rep
		time.Sleep(500 * time.Millisecond)
		a0 := heapAllocs()
		type rate struct {
			mpps float64
			pkts uint64
		}
		rc := make(chan rate, 1)
		go func() {
			m, n := rep.sampleRate(dur, 250*time.Millisecond)
			rc <- rate{m, n}
		}()
		p.rc = r.rc.runReconfig(livePeriod, int(dur/livePeriod))
		rt := <-rc
		a1 := heapAllocs()
		rep.stop()
		r.rc.replay = nil
		p.heapMB = max(p.heapMB, liveHeapMB())
		p.ltWall = rep.wall
		p.replayMpps = rt.mpps
		p.ops.add(p.rc.ops)
		if traced {
			p.lt, p.ltWorkers = rep.timed.totals(), r.rc.d.ctrl.Workers()
			p.allocsPerFrame = float64(a1-a0) / float64(rt.pkts)
			p.ring = rep.rep.Stats().Ring
		}
		p.shortQuery(r)

	case "fleet-query":
		var lt *layerTimes
		if traced {
			lt = &p.lt
		}
		a0 := heapAllocs()
		p.q = r.fl.runRounds(dur, 0, lt)
		a1 := heapAllocs()
		p.heapMB = max(p.heapMB, liveHeapMB())
		p.ops.add(p.q.ops)
		p.replayMpps = float64(p.q.feedFrames) / p.q.feedTime.Seconds() / 1e6
		if traced {
			p.ltWall, p.ltWorkers = p.q.feedTime, 1
			p.allocsPerFrame = float64(a1-a0) / float64(p.q.feedFrames)
		}
		if err := p.shortReconfig(r, tr); err != nil {
			return nil, err
		}
	}
	if p.checkErr == nil {
		p.checkErr = p.q.checkErr
	}
	if p.checkErr == nil {
		p.checkErr = checkNoLeak(p.rc.freeBefore, p.rc.freeAfter)
	}
	if traced {
		probeDataPath(tr, &p.probes)
		if err := probeQueryPath(r.fl, &p.probes); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// shortReconfig runs a fixed number of menu ops on the reconfiguration
// rig while its replay runs.
func (p *passResult) shortReconfig(r *rigs, tr *mmtrace.Trace) error {
	rep, err := startReplay(r.rc.d.ctrl, tr, false)
	if err != nil {
		return err
	}
	r.rc.replay = rep
	time.Sleep(200 * time.Millisecond)
	p.rc = r.rc.runReconfig(livePeriod, shortReconfigOps)
	rep.stop()
	r.rc.replay = nil
	p.heapMB = max(p.heapMB, liveHeapMB())
	p.ops.add(p.rc.ops)
	if p.ring == (mmtrace.RingStats{}) {
		p.ring = rep.rep.Stats().Ring
	}
	return nil
}

// shortQuery runs a fixed number of rounds on the small fleet.
func (p *passResult) shortQuery(r *rigs) {
	p.q = r.fl.runRounds(0, shortQueryRounds, nil)
	p.heapMB = max(p.heapMB, liveHeapMB())
	p.ops.add(p.q.ops)
}

func run(opt options) (*result, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	facts := machine(opt)
	fj, _ := json.Marshal(map[string]any{"machine": facts})
	fmt.Println(string(fj))
	logf("%s seed=%d seconds=%d trace=%v on %s (nproc %d, %s)", opt.workload, opt.seed, opt.seconds, opt.trace, facts.CPU, facts.NProc, facts.GoVersion)

	// Set-up: synthesize the trace and build the workload's rigs,
	// setupReps times; the median is setup_s.
	path := filepath.Join(opt.out, fmt.Sprintf("trace-%s-%d.fmt", opt.workload, opt.seed))
	defer os.Remove(path)
	var (
		tr     *mmtrace.Trace
		r      *rigs
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			tr.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if tr, err = synthTrace(path, opt.seed, tracePackets); err != nil {
			return nil, err
		}
		if r, err = buildRigs(opt.workload, tr, nil); err != nil {
			tr.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tr.Close()

	plain, err := runPass(opt, tr, r, true)
	r.close()
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = plain.ops.attempted, plain.ops.failed
	checkErr := plain.checkErr

	if !opt.trace {
		if err := endToEnd(res, plain, median(setups)); err != nil {
			return nil, err
		}
	} else {
		tracer := tracing.New(tracerSpans)
		tr2, err := buildRigs(opt.workload, tr, tracer)
		if err != nil {
			return nil, err
		}
		traced, err := runPass(opt, tr, tr2, false)
		if err != nil {
			tr2.close()
			return nil, err
		}
		spans, _, dropped := tracer.Dump()
		rpcRep := tr2.rpcStats.Snapshot()
		fleetStats := tr2.fl.stats
		tr2.close()
		res.Attempted += traced.ops.attempted
		res.Failed += traced.ops.failed
		if checkErr == nil {
			checkErr = traced.checkErr
		}
		ix := indexSpans(spans)
		if err := perLayer(res, opt, plain, traced, ix, dropped, rpcRep, fleetStats); err != nil {
			return nil, err
		}
		if err := writeSpanDump(opt, facts, ix, traced, res); err != nil {
			return nil, err
		}
		printSelfTimes(ix)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res.Correct = checkErr == nil
	if checkErr != nil {
		logf("correctness check FAILED: %v", checkErr)
	}
	printMetrics(res)
	return res, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, p *passResult, setup float64) error {
	m := res.Metrics
	m["setup_s"] = metric{setup, "s"}
	m["peak_heap_mb"] = metric{p.heapMB, "MB"}
	m["replay_mpps"] = metric{p.replayMpps, "Mpps"}
	m["deploy_effect_ms_p50"] = metric{blockQuantile(p.rc.effectMs, 0.5), "ms"}
	m["deploy_effect_ms_p90"] = metric{blockQuantile(p.rc.effectMs, 0.9), "ms"}
	m["reconfig_op_ms_p50"] = metric{blockQuantile(p.rc.opMs, 0.5), "ms"}
	m["reconfig_op_ms_p90"] = metric{blockQuantile(p.rc.opMs, 0.9), "ms"}
	m["query_ms_p50"] = metric{blockQuantile(p.q.queryMs, 0.5), "ms"}
	m["query_ms_p90"] = metric{blockQuantile(p.q.queryMs, 0.9), "ms"}
	m["epoch_rotate_ms_p50"] = metric{blockQuantile(p.q.rotateMs, 0.5), "ms"}
	m["ok_ops_ratio"] = metric{1 - float64(p.ops.failed)/float64(max(p.ops.attempted, 1)), "ratio"}
	return finite(m)
}

func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no samples", name)
		}
	}
	return nil
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  ops attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
