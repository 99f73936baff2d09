package main

import (
	"fmt"
	"runtime"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// The reconfiguration rig: one daemon on loopback whose controller replays
// the trace continuously on one pool worker with six resident CMS tasks,
// while one control client on one rpc connection cycles through menu in an
// open loop.

const (
	reconfigGroups    = 10
	reconfigResidents = 6
	// hitTimeout bounds the wait for a deployed task's first counted
	// packet; a deploy that has not counted by then is a failed op.
	hitTimeout = time.Second
)

type menuOp struct {
	kind string // "add", "resize", "remove"
	name string
}

// menu is one reconfiguration cycle: deploy a CMS frequency task, an HLL
// cardinality task, a filtered (TCP-only) Bloom existence task and a SuMax
// max task, resize the CMS, then remove all four. A whole number of cycles
// leaves the controller's task set as it found it.
var menu = []menuOp{
	{"add", "cms"}, {"add", "hll"}, {"add", "bloom"}, {"add", "sumax"},
	{"resize", "cms"},
	{"remove", "cms"}, {"remove", "hll"}, {"remove", "bloom"}, {"remove", "sumax"},
}

func menuSpec(name string) controlplane.TaskSpec {
	five := controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple}
	switch name {
	case "cms":
		return cmsSpec("menu-cms", 4096)
	case "hll":
		return controlplane.TaskSpec{
			Name: "menu-hll", Attribute: controlplane.AttrDistinct, Param: five,
			MemBuckets: 4096, D: 1, Algorithm: controlplane.AlgHLL,
		}
	case "bloom":
		return controlplane.TaskSpec{
			Name: "menu-bloom", Filter: packet.Filter{Proto: 6},
			Attribute: controlplane.AttrExistence, Param: five,
			MemBuckets: 4096, D: 3, Algorithm: controlplane.AlgBloom,
		}
	case "sumax":
		return controlplane.TaskSpec{
			Name: "menu-sumax", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrMax,
			Param:      controlplane.ParamSpec{Kind: controlplane.ParamQueueLength},
			MemBuckets: 4096, D: 3, Algorithm: controlplane.AlgSuMaxMax,
		}
	}
	panic("perfbench: unknown menu task " + name)
}

// resizeBuckets is the CMS's size after the menu's resize.
const resizeBuckets = 8192

type reconfigRig struct {
	d      *daemon
	tracer *tracing.Tracer
	replay *replayRun // the running replay, stopped by close
}

func newReconfigRig(tracer *tracing.Tracer, stats *telemetry.RPCStats) (*reconfigRig, error) {
	ctrl, err := newLoadedController(reconfigGroups, 1, reconfigResidents)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctrl, tracer, stats)
	if err != nil {
		ctrl.Close()
		return nil, err
	}
	return &reconfigRig{d: d, tracer: tracer}, nil
}

func (r *reconfigRig) close() {
	if r.replay != nil {
		r.replay.stop()
		r.replay = nil
	}
	r.d.close()
}

// addSample pairs a traced AddTask call with its client-side duration, so
// the rpc share can be split from the daemon's dispatch span afterwards.
type addSample struct {
	trace    tracing.TraceID
	clientNs int64
}

// reconfigResult is what one reconfiguration phase measured.
type reconfigResult struct {
	opMs       []float64 // every menu op, from its due time to its return
	effectMs   []float64 // AddTask due time to the new task's first counted packet
	pubToHitUs []float64 // AddTask return to first counted packet
	lagMs      []float64 // open-loop lateness: send time minus due time
	adds       []addSample
	ops        opCount
	publishes  uint64 // snapshot versions published during the phase
	// FreeBuckets before the first op and after the cleanup.
	freeBefore, freeAfter [][]int
}

// opCount is the failure accounting every phase keeps.
type opCount struct {
	attempted, failed int
}

func (c *opCount) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

// runReconfig drives the menu at one op per period, open loop, for nOps
// ops (rounded up to whole cycles), then removes anything still deployed
// and checks the free-bucket ledger. The rig's replay must be running.
func (r *reconfigRig) runReconfig(period time.Duration, nOps int) reconfigResult {
	var res reconfigResult
	ctrl := r.d.ctrl
	before := ctrl.FreeBuckets()
	v0 := ctrl.SnapshotVersion()
	ids := map[string]int{}
	if rem := nOps % len(menu); rem != 0 {
		nOps += len(menu) - rem
	}
	start := time.Now()
	for i := 0; i < nOps; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lagMs = append(res.lagMs, ms(time.Since(due)))
		err := r.do(menu[i%len(menu)], due, ids, &res)
		if err != nil {
			logf("reconfig op %d (%s %s): %v", i, menu[i%len(menu)].kind, menu[i%len(menu)].name, err)
		}
		res.ops.record(err)
	}
	for name, id := range ids {
		sp := r.tracer.StartRoot("bench:cleanup_task")
		err := r.d.cli.RemoveTask(id, sp.Context())
		sp.Finish(err)
		if err != nil {
			logf("reconfig cleanup of %s: %v", name, err)
		}
		res.ops.record(err)
	}
	res.publishes = ctrl.SnapshotVersion() - v0
	res.freeBefore, res.freeAfter = before, ctrl.FreeBuckets()
	return res
}

// do runs one menu op. Every op is timed from its due time; a deploy is
// additionally timed until the new task's registers show a counted packet,
// polled through the daemon controller's public ReadRegisters.
func (r *reconfigRig) do(op menuOp, due time.Time, ids map[string]int, res *reconfigResult) (err error) {
	sp := r.tracer.StartRoot("bench:" + op.kind + "_task")
	defer func() { sp.Finish(err) }()
	parent := sp.Context()
	switch op.kind {
	case "add":
		t0 := time.Now()
		tr, err := r.d.cli.AddTask(menuSpec(op.name), parent)
		t1 := time.Now()
		if err != nil {
			return err
		}
		ids[op.name] = tr.ID
		res.opMs = append(res.opMs, ms(t1.Sub(due)))
		if sp != nil {
			res.adds = append(res.adds, addSample{trace: parent.Trace, clientNs: int64(t1.Sub(t0))})
		}
		hit, err := r.firstHit(tr.ID, t1)
		if err != nil {
			return err
		}
		res.effectMs = append(res.effectMs, ms(hit.Sub(due)))
		res.pubToHitUs = append(res.pubToHitUs, us(hit.Sub(t1)))
		return nil
	case "resize":
		id, ok := ids[op.name]
		if !ok {
			return fmt.Errorf("resize: %s is not deployed", op.name)
		}
		if _, err := r.d.cli.ResizeTask(id, resizeBuckets, parent); err != nil {
			return err
		}
	case "remove":
		id, ok := ids[op.name]
		if !ok {
			return fmt.Errorf("remove: %s is not deployed", op.name)
		}
		if err := r.d.cli.RemoveTask(id, parent); err != nil {
			return err
		}
		delete(ids, op.name)
	}
	res.opMs = append(res.opMs, ms(time.Since(due)))
	return nil
}

// firstHit polls a task's registers until any bucket is non-zero.
func (r *reconfigRig) firstHit(id int, since time.Time) (time.Time, error) {
	for {
		rows, err := r.d.ctrl.ReadRegisters(id)
		if err != nil {
			return time.Time{}, err
		}
		for _, row := range rows {
			for _, v := range row {
				if v != 0 {
					return time.Now(), nil
				}
			}
		}
		if time.Since(since) > hitTimeout {
			return time.Time{}, fmt.Errorf("task %d counted no packet within %v", id, hitTimeout)
		}
		runtime.Gosched()
	}
}
