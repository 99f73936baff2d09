package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// perLayer fills the traced run's metrics from the traced pass (outside
// timers, probes, spans, telemetry) and the untraced pass of the same seed
// (tracing overhead).
func perLayer(res *result, opt options, plain, p *passResult, ix *spanIndex, dropped uint64,
	rpcRep telemetry.RPCReport, fleet *telemetry.FleetStats) error {
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	lt := p.lt
	if lt.spans == 0 || lt.frames == 0 {
		return fmt.Errorf("traced main phase delivered no frames")
	}

	// mmtrace (ingest)
	set("mmtrace.next_frames_ns_per_span", float64(lt.nextNs)/float64(lt.spans), "ns")
	set("mmtrace.ring_push_stalls", float64(p.ring.PushStalls), "count")
	set("mmtrace.ring_pop_stalls", float64(p.ring.PopStalls), "count")
	set("mmtrace.extract_ns_per_frame", p.probes.extractNsPerFrame, "ns")

	// core (snapshot, frames engine, pool)
	set("core.process_ns_per_frame", float64(lt.procNs)/float64(lt.frames), "ns")
	set("core.worker_busy_ratio", float64(lt.procNs)/(float64(p.ltWall)*float64(p.ltWorkers)), "ratio")
	set("core.allocs_per_frame", p.allocsPerFrame, "count")
	set("core.snapshot_publishes", float64(p.rc.publishes), "count")

	// hashing, dataplane
	set("hashing.sumkey_ns_per_key", p.probes.sumKeyNsPerKey, "ns")
	set("dataplane.apply_add_batch_ns_per_update", p.probes.applyAddNsPerUpdate, "ns")

	// controlplane: self-times of the daemon's mutation spans
	set("controlplane.add_task_us", median(ix.selfs("controlplane:add_task")), "us")
	set("controlplane.resize_task_us", median(ix.selfs("controlplane:resize_task")), "us")
	set("controlplane.remove_task_us", median(ix.selfs("controlplane:remove_task")), "us")
	set("controlplane.publish_to_first_hit_us", median(p.rc.pubToHitUs), "us")
	set("controlplane.free_buckets_leaked", float64(leakedBuckets(p.rc.freeBefore, p.rc.freeAfter)), "count")

	// rpc: client call time minus the daemon's dispatch span
	var rpcAdd []float64
	for _, a := range p.rc.adds {
		if d := ix.traceSpan(a.trace, "dispatch:add_task"); d >= 0 {
			rpcAdd = append(rpcAdd, float64(a.clientNs-d)/1e3)
		}
	}
	set("rpc.add_task_us", median(rpcAdd), "us")
	set("rpc.read_registers_packed_us", p.probes.readPackedUs, "us")
	var retries uint64
	for _, ep := range rpcRep.Endpoints {
		retries += ep.Retries
	}
	set("rpc.retries", float64(retries), "count")
	set("rpc.breaker_rejections", float64(ix.breakerRejections()), "count")

	// netwide: fan-out, merge tree, epochs, stragglers
	fan := append(ix.lastChildEnd("query", "switch"), ix.lastChildEnd("epoch_query", "switch")...)
	set("netwide.fanout_last_leaf_ms", median(fan)/1e3, "ms")
	set("netwide.merge_ms", median(ix.selfs("merge"))/1e3, "ms")
	set("netwide.merge_stream_ms", p.probes.mergeStreamMs, "ms")
	set("netwide.rotate_fanout_ms", median(ix.lastChildEnd("epoch_rotate", "switch"))/1e3, "ms")
	if fleet == nil {
		return fmt.Errorf("traced fleet has no telemetry")
	}
	set("netwide.tree_depth", float64(fleet.MergeTree.LastDepth.Load()), "count")
	set("netwide.straggler_wait_ms", float64(fleet.MergeTree.StragglerWait.Snapshot().SumNs)/1e6, "ms")
	set("netwide.stragglers_timed_out", float64(fleet.MergeTree.StragglersTimedOut.Load()), "count")

	// sketch merge kernels
	set("sketch.combine_ns_per_bucket", p.probes.combineNsPerBucket, "ns")

	// the benchmark itself
	set("bench.generator_lag_ms", quantile(p.rc.lagMs, 0.9), "ms")
	set("bench.tracing_overhead_pct", overheadPct(opt.workload, plain, p), "%")
	// The replay rate the two outside timers account for: every worker
	// alternates between NextFrames (ingest) and processing the span.
	layerMpps := float64(lt.frames) * float64(p.ltWorkers) / float64(lt.nextNs+lt.procNs) * 1e3
	set("bench.layer_sum_mpps", layerMpps, "Mpps")
	set("bench.layer_accounting_gap_pct", (plain.replayMpps-layerMpps)/plain.replayMpps*100, "%")
	set("bench.failed_ops_ratio", float64(p.ops.failed)/float64(max(p.ops.attempted, 1)), "ratio")
	set("bench.deploy_samples", float64(len(p.rc.effectMs)), "count")
	set("bench.reconfig_samples", float64(len(p.rc.opMs)), "count")
	set("bench.query_samples", float64(len(p.q.queryMs)), "count")
	set("bench.rotate_samples", float64(len(p.q.rotateMs)), "count")
	set("bench.spans_dropped", float64(dropped), "count")
	return finite(m)
}

// overheadPct compares the workload's primary metric between the traced
// pass and the untraced pass of the same seed: positive means tracing
// made it worse.
func overheadPct(workload string, plain, traced *passResult) float64 {
	switch workload {
	case "replay-9task":
		return (plain.replayMpps - traced.replayMpps) / plain.replayMpps * 100
	case "reconfig-live":
		a, b := blockQuantile(plain.rc.opMs, 0.5), blockQuantile(traced.rc.opMs, 0.5)
		return (b - a) / a * 100
	default:
		a, b := blockQuantile(plain.q.queryMs, 0.5), blockQuantile(traced.q.queryMs, 0.5)
		return (b - a) / a * 100
	}
}

// spanDump is the traced run's file: every span plus the outside-timer
// samples, written when the run ends.
type spanDump struct {
	Machine   machineFacts          `json:"machine"`
	PerLayer  map[string]metric     `json:"per_layer"`
	SelfTimes map[string]*nameStats `json:"self_times"`
	Samples   map[string][]float64  `json:"samples"`
	Spans     []tracing.Span        `json:"spans"`
}

func writeSpanDump(opt options, facts machineFacts, ix *spanIndex, p *passResult, res *result) error {
	dump := spanDump{
		Machine:   facts,
		PerLayer:  res.Metrics,
		SelfTimes: ix.selfTimes(),
		Samples: map[string][]float64{
			"reconfig_op_ms":           p.rc.opMs,
			"deploy_effect_ms":         p.rc.effectMs,
			"publish_to_first_hit_us":  p.rc.pubToHitUs,
			"generator_lag_ms":         p.rc.lagMs,
			"query_ms":                 p.q.queryMs,
			"epoch_rotate_ms":          p.q.rotateMs,
			"replay_mpps_traced":       {p.replayMpps},
			"main_next_frames_ns":      {float64(p.lt.nextNs)},
			"main_process_ns":          {float64(p.lt.procNs)},
			"main_frames":              {float64(p.lt.frames)},
			"main_spans":               {float64(p.lt.spans)},
			"probe_merge_stream_depth": {float64(p.probes.mergeStreamDepth)},
		},
		Spans: ix.spans,
	}
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-%d.json", opt.workload, opt.seed))
	b, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	logf("wrote %d spans and timer samples to %s", len(ix.spans), path)
	return nil
}

// printSelfTimes prints per-span-name self time, largest total first.
func printSelfTimes(ix *spanIndex) {
	st := ix.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return st[names[a]].SelfTotalMs > st[names[b]].SelfTotalMs })
	fmt.Fprintf(os.Stderr, "  %-30s %8s %12s %12s %12s\n", "span", "count", "total ms", "self ms", "self p50 us")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(os.Stderr, "  %-30s %8d %12.3f %12.3f %12.1f\n", n, s.Count, s.TotalMs, s.SelfTotalMs, s.SelfP50Us)
	}
}
