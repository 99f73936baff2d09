package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/core"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
	"flymon/internal/tracing"
)

// Trace shape shared by every workload: 4M packets over 100k 5-tuple flows
// with Zipf-1.1 per-flow sizes.
const (
	traceFlows   = 100_000
	traceZipf    = 1.1
	tracePackets = 4_000_000
)

// synthTrace generates the seeded trace, writes it in FLYMTRC format to
// path, maps it and faults every page in, so timed replays start on a warm
// page cache.
func synthTrace(path string, seed int64, packets int) (*mmtrace.Trace, error) {
	tr := trace.Generate(trace.Config{Flows: traceFlows, Packets: packets, ZipfS: traceZipf, Seed: seed})
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := trace.NewWriter(f)
	if err == nil {
		err = w.WriteTrace(tr)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	mt, err := mmtrace.Open(path)
	if err != nil {
		if mt != nil {
			mt.Close()
		}
		return nil, err
	}
	warmSink ^= touchPages(mt.Span(0, mt.Frames()))
	return mt, nil
}

var warmSink byte

func touchPages(b []byte) byte {
	var x byte
	for i := 0; i < len(b); i += 4096 {
		x ^= b[i]
	}
	return x
}

// prefixTrace copies the first frames of tr into an in-memory trace.
func prefixTrace(tr *mmtrace.Trace, frames int) (*mmtrace.Trace, error) {
	hdr := trace.Header()
	buf := make([]byte, 0, len(hdr)+frames*trace.RecordSize)
	buf = append(buf, hdr[:]...)
	buf = append(buf, tr.Span(0, frames)...)
	return mmtrace.NewFromBytes(buf)
}

// cmsSpec is the frequency task every workload deploys as load: a 3-row
// count-min sketch over the 5-tuple.
func cmsSpec(name string, buckets int) controlplane.TaskSpec {
	return controlplane.TaskSpec{
		Name: name, Key: packet.KeyFiveTuple, Attribute: controlplane.AttrFrequency,
		MemBuckets: buckets, D: 3, Algorithm: controlplane.AlgCMS,
	}
}

// newLoadedController builds a controller and deploys `tasks` resident CMS
// tasks of 16Ki buckets, one per group.
func newLoadedController(groups, workers, tasks int) (*controlplane.Controller, error) {
	ctrl := controlplane.NewController(controlplane.Config{
		Groups: groups, Buckets: 65536, BitWidth: 32, Workers: workers,
	})
	for i := 0; i < tasks; i++ {
		if _, err := ctrl.AddTask(cmsSpec(fmt.Sprintf("load%d", i), 16384)); err != nil {
			ctrl.Close()
			return nil, err
		}
	}
	return ctrl, nil
}

// daemon is one in-process flymond: a controller served over loopback
// rpc, plus the benchmark's own client connection to it.
type daemon struct {
	ctrl *controlplane.Controller
	srv  *rpc.Server
	cli  *rpc.Client
}

// startDaemon serves ctrl on an ephemeral loopback port. tr and stats may
// be nil (untraced run).
func startDaemon(ctrl *controlplane.Controller, tr *tracing.Tracer, stats *telemetry.RPCStats) (*daemon, error) {
	srv := rpc.NewServer(ctrl, nil)
	srv.SetTracer(tr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts := rpc.DefaultOptions
	opts.Tracer = tr
	opts.Telemetry = stats
	cli, err := rpc.DialOptions(addr, opts)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{ctrl: ctrl, srv: srv, cli: cli}, nil
}

func (d *daemon) close() {
	d.cli.Close()
	d.srv.Close()
	d.ctrl.Close()
}

// replayRun is a looping trace replay draining through a controller's
// worker pool on its own goroutine.
type replayRun struct {
	rep     *mmtrace.Replayer
	done    chan struct{}
	timed   *timedSource // nil unless the run is instrumented
	started time.Time
	wall    time.Duration // start to drained, set by stop
}

// startReplay loops tr through ctrl.ProcessFrameSource until stop. With
// timed set, every worker's NextFrames call is wrapped by a timedSource.
func startReplay(ctrl *controlplane.Controller, tr *mmtrace.Trace, timed bool) (*replayRun, error) {
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{
		Traces: []*mmtrace.Trace{tr}, Workers: ctrl.Workers(), Passes: -1,
	})
	if err != nil {
		return nil, err
	}
	r := &replayRun{rep: rep, done: make(chan struct{})}
	var src core.FrameSource = rep
	if timed {
		r.timed = newTimedSource(rep, ctrl.Workers())
		src = r.timed
	}
	r.started = time.Now()
	rep.Start()
	go func() {
		defer close(r.done)
		ctrl.ProcessFrameSource(src)
	}()
	return r, nil
}

// stop ends the replay and waits until every worker has drained.
func (r *replayRun) stop() {
	r.rep.Stop()
	<-r.done
	r.wall = time.Since(r.started)
}

// sampleRate measures the replay's delivery rate over dur in fixed
// intervals and returns the median interval rate in Mpps plus the
// packets delivered.
func (r *replayRun) sampleRate(dur, every time.Duration) (float64, uint64) {
	var rates []float64
	start := time.Now()
	first := r.rep.Packets()
	prevT, prevN := start, first
	for time.Since(start) < dur {
		time.Sleep(every)
		t, n := time.Now(), r.rep.Packets()
		if dt := t.Sub(prevT); dt > 0 {
			rates = append(rates, float64(n-prevN)/dt.Seconds()/1e6)
		}
		prevT, prevN = t, n
	}
	return median(rates), prevN - first
}

// timedSource wraps a FrameSource with outside timers: per worker, the
// time spent inside NextFrames (ingest) and the time between consecutive
// NextFrames returns (processing of the span just handed out).
type timedSource struct {
	src   core.FrameSource
	base  time.Time
	state []workerTimes
}

type workerTimes struct {
	last   int64 // ns since base of the previous non-nil return (0 = none)
	nextNs int64
	procNs int64
	spans  int64
	frames int64
	_      [24]byte // keep workers on separate cache lines
}

func newTimedSource(src core.FrameSource, workers int) *timedSource {
	return &timedSource{src: src, base: time.Now(), state: make([]workerTimes, workers)}
}

func (s *timedSource) NextFrames(w int) (*mmtrace.Trace, int, int) {
	st := &s.state[w]
	t0 := int64(time.Since(s.base))
	if st.last != 0 {
		st.procNs += t0 - st.last
	}
	t, lo, hi := s.src.NextFrames(w)
	t1 := int64(time.Since(s.base))
	st.nextNs += t1 - t0
	if t == nil {
		st.last = 0
		return nil, 0, 0
	}
	st.spans++
	st.frames += int64(hi - lo)
	st.last = t1
	return t, lo, hi
}

// layerTimes folds the per-worker timers. Call only after the source is
// drained.
type layerTimes struct {
	nextNs, procNs, spans, frames int64
}

func (s *timedSource) totals() layerTimes {
	var lt layerTimes
	for i := range s.state {
		st := &s.state[i]
		lt.nextNs += st.nextNs
		lt.procNs += st.procNs
		lt.spans += st.spans
		lt.frames += st.frames
	}
	return lt
}

// sliceSource hands one worker pool the frames [lo, hi) of a trace in
// fixed spans, once.
type sliceSource struct {
	t     *mmtrace.Trace
	next  atomic.Int64
	hi    int64
	batch int64
}

func newSliceSource(t *mmtrace.Trace, lo, hi, batch int) *sliceSource {
	s := &sliceSource{t: t, hi: int64(hi), batch: int64(batch)}
	s.next.Store(int64(lo))
	return s
}

func (s *sliceSource) NextFrames(int) (*mmtrace.Trace, int, int) {
	lo := s.next.Add(s.batch) - s.batch
	if lo >= s.hi {
		return nil, 0, 0
	}
	return s.t, int(lo), int(min(lo+s.batch, s.hi))
}
