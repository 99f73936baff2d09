package main

import (
	"fmt"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/core"
	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// The fleet rig: n in-process daemons on loopback behind one RemoteFleet.
// Each daemon holds one epoch task and one live task, both CMS 3×16Ki.

const (
	fleetEpochTask = "epoch"
	fleetLiveTask  = "live"
	// sliceFrames is each daemon's share of the trace per round.
	sliceFrames = 2048
	feedBatch   = 512
)

var fleetConfig = controlplane.Config{Groups: 4, Buckets: 16384, BitWidth: 32, Workers: 1}

type fleetRig struct {
	daemons []*daemon
	fleet   *netwide.RemoteFleet
	stats   *telemetry.FleetStats // nil when untraced
	trace   *mmtrace.Trace
	cursor  int
	liveIDs []int
}

func newFleetRig(tr *mmtrace.Trace, n int, tracer *tracing.Tracer, rpcStats *telemetry.RPCStats) (*fleetRig, error) {
	r := &fleetRig{trace: tr}
	clients := make([]*rpc.Client, 0, n)
	for i := 0; i < n; i++ {
		d, err := startDaemon(controlplane.NewController(fleetConfig), tracer, rpcStats)
		if err != nil {
			r.close()
			return nil, err
		}
		r.daemons = append(r.daemons, d)
		clients = append(clients, d.cli)
	}
	opts := netwide.FleetOptions{Tracer: tracer}
	if tracer != nil {
		r.stats = &telemetry.FleetStats{}
		opts.Telemetry = r.stats
	}
	r.fleet = netwide.NewRemoteFleetOptions(clients, fleetConfig, opts)
	if err := r.fleet.DeployEpoch(cmsSpec(fleetEpochTask, 16384)); err != nil {
		r.close()
		return nil, err
	}
	if err := r.fleet.Deploy(cmsSpec(fleetLiveTask, 16384)); err != nil {
		r.close()
		return nil, err
	}
	for _, d := range r.daemons {
		id, err := taskID(d.ctrl, fleetLiveTask)
		if err != nil {
			r.close()
			return nil, err
		}
		r.liveIDs = append(r.liveIDs, id)
	}
	return r, nil
}

func (r *fleetRig) close() {
	if r.fleet != nil {
		r.fleet.Stop()
	}
	for _, d := range r.daemons {
		d.close()
	}
}

// taskID finds a deployed task by its spec name.
func taskID(ctrl *controlplane.Controller, name string) (int, error) {
	for _, t := range ctrl.Tasks() {
		if t.Spec.Name == name {
			return t.ID, nil
		}
	}
	return 0, fmt.Errorf("no task named %q", name)
}

// queryResult is what one fleet-query phase measured.
type queryResult struct {
	queryMs    []float64 // QueryEpochRows and MergedRows latencies
	rotateMs   []float64 // RotateEpoch latencies
	feedFrames int64
	feedTime   time.Duration
	ops        opCount
	rounds     int
	checkErr   error
}

// round is one closed-loop fleet round: feed every daemon a disjoint slice
// of the trace through its controller, rotate the epoch task fleet-wide,
// query the closed epoch under the wait policy, then merge the live task
// with the tree engine. Both merges are checked against the element-wise
// sum of the daemons' own ReadRegisters. When lt is non-nil, every feed's
// frame source is wrapped by a timedSource and its totals added to lt.
func (r *fleetRig) round(res *queryResult, lt *layerTimes) {
	res.rounds++
	t0 := time.Now()
	for _, d := range r.daemons {
		if r.cursor+sliceFrames > r.trace.Frames() {
			r.cursor = 0
		}
		var src core.FrameSource = newSliceSource(r.trace, r.cursor, r.cursor+sliceFrames, feedBatch)
		if lt != nil {
			ts := newTimedSource(src, d.ctrl.Workers())
			d.ctrl.ProcessFrameSource(ts)
			t := ts.totals()
			lt.nextNs += t.nextNs
			lt.procNs += t.procNs
			lt.spans += t.spans
			lt.frames += t.frames
		} else {
			d.ctrl.ProcessFrameSource(src)
		}
		r.cursor += sliceFrames
		res.feedFrames += sliceFrames
	}
	res.feedTime += time.Since(t0)
	res.ops.record(nil)

	t0 = time.Now()
	target, err := r.fleet.RotateEpoch(fleetEpochTask)
	if err == nil {
		res.rotateMs = append(res.rotateMs, ms(time.Since(t0)))
	}
	res.ops.record(err)
	if err != nil {
		logf("rotate: %v", err)
		return
	}

	t0 = time.Now()
	rows, rep, err := r.fleet.QueryEpochRows(fleetEpochTask, target, netwide.EpochQuery{Policy: netwide.StragglerWait, Op: netwide.MergeAdd})
	if err == nil && rep.Partial() {
		err = fmt.Errorf("partial epoch query: %s", rep)
	}
	if err == nil {
		res.queryMs = append(res.queryMs, ms(time.Since(t0)))
		if res.checkErr == nil {
			res.checkErr = r.checkEpoch(rows, target)
		}
	}
	res.ops.record(err)
	if err != nil {
		logf("epoch query: %v", err)
	}

	t0 = time.Now()
	rows, rep, err = r.fleet.MergedRows(fleetLiveTask, netwide.MergeAdd, netwide.EngineTree)
	if err == nil && rep.Partial() {
		err = fmt.Errorf("partial live query: %s", rep)
	}
	if err == nil {
		res.queryMs = append(res.queryMs, ms(time.Since(t0)))
		if res.checkErr == nil {
			res.checkErr = r.checkLive(rows)
		}
	}
	res.ops.record(err)
	if err != nil {
		logf("live query: %v", err)
	}
}

// checkEpoch compares the merged epoch rows with the sum of every
// daemon's frozen copy for that epoch (the rotator names copy k
// "<task>#k"; epoch E's counters live in copy E-1).
func (r *fleetRig) checkEpoch(merged [][]uint32, epoch int) error {
	name := fmt.Sprintf("%s#%d", fleetEpochTask, epoch-1)
	parts := make([][][]uint32, len(r.daemons))
	for i, d := range r.daemons {
		id, err := taskID(d.ctrl, name)
		if err != nil {
			return fmt.Errorf("epoch %d check, daemon %d: %w", epoch, i, err)
		}
		if parts[i], err = d.ctrl.ReadRegisters(id); err != nil {
			return err
		}
	}
	return checkMergedSum(fmt.Sprintf("epoch %d merge", epoch), merged, parts)
}

func (r *fleetRig) checkLive(merged [][]uint32) error {
	parts := make([][][]uint32, len(r.daemons))
	for i, d := range r.daemons {
		var err error
		if parts[i], err = d.ctrl.ReadRegisters(r.liveIDs[i]); err != nil {
			return err
		}
	}
	return checkMergedSum("live merge", merged, parts)
}

// runRounds runs rounds until dur has elapsed (dur > 0) or n rounds are
// done (n > 0).
func (r *fleetRig) runRounds(dur time.Duration, n int, lt *layerTimes) queryResult {
	var res queryResult
	start := time.Now()
	for {
		if n > 0 && res.rounds >= n {
			break
		}
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		r.round(&res, lt)
	}
	return res
}
