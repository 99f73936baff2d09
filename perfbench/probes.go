package main

import (
	"time"

	"flymon/internal/dataplane"
	"flymon/internal/hashing"
	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
	"flymon/internal/packet"
)

// Probes time single public functions of one layer on the workload's own
// inputs, outside the replay, so each layer's cost per unit of work can be
// read without in-program instrumentation. Each probe repeats its loop
// probeReps times and reports the median.

const (
	probeReps   = 7
	probeFrames = 1 << 16
	probeBatch  = 512
)

type probeResult struct {
	extractNsPerFrame   float64
	sumKeyNsPerKey      float64
	applyAddNsPerUpdate float64
	combineNsPerBucket  float64
	mergeStreamMs       float64
	readPackedUs        float64
	mergeStreamDepth    int
}

var probeSink uint32

// timeReps runs fn probeReps times and returns the median duration.
func timeReps(fn func()) time.Duration {
	d := make([]float64, probeReps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// probeDataPath times the per-packet layers over the first probeFrames
// frames of the trace: FrameView.ExtractMasked (mmtrace), Hasher.SumKey on
// the masked keys (hashing) and Register.ApplyAddBatch on index vectors
// built from those digests (dataplane).
func probeDataPath(tr *mmtrace.Trace, p *probeResult) {
	n := min(probeFrames, tr.Frames())
	mask := packet.KeyFiveTuple.FieldMask()
	keys := make([]packet.CanonicalKey, n)
	d := timeReps(func() {
		for i := range keys {
			tr.At(i).ExtractMasked(&mask, &keys[i])
		}
	})
	p.extractNsPerFrame = float64(d) / float64(n)

	h := hashing.NewUnit(0).Hasher()
	digests := make([]uint32, n)
	d = timeReps(func() {
		for i := range keys {
			digests[i] = h.SumKey(&keys[i])
		}
	})
	p.sumKeyNsPerKey = float64(d) / float64(n)

	const buckets = 65536
	reg := dataplane.NewRegister(buckets, 32)
	idx := make([]uint32, n)
	for i, dg := range digests {
		idx[i] = dg & (buckets - 1)
	}
	d = timeReps(func() {
		for lo := 0; lo < n; lo += probeBatch {
			reg.ApplyAddBatch(idx[lo:min(lo+probeBatch, n)], 1)
		}
	})
	p.applyAddNsPerUpdate = float64(d) / float64(n)
	probeSink ^= digests[n-1]
}

// probeQueryPath times the query-plane layers on the fleet rig's live
// task: Client.ReadRegistersPacked per switch (rpc), MergeOp.Combine over
// one row (sketch kernels) and MergeStream over 32 pre-fetched leaves
// (netwide).
func probeQueryPath(r *fleetRig, p *probeResult) error {
	var reads []float64
	for rep := 0; rep < probeReps; rep++ {
		for i, d := range r.daemons {
			t0 := time.Now()
			if _, err := d.cli.ReadRegistersPacked(r.liveIDs[i]); err != nil {
				return err
			}
			reads = append(reads, us(time.Since(t0)))
		}
	}
	p.readPackedUs = median(reads)

	// 32 leaves: the rig's own switches, repeated when the fleet is
	// smaller, so every workload merges the same tree shape.
	const leaves = 32
	base := make([][][]uint32, len(r.daemons))
	for i, d := range r.daemons {
		rows, err := d.ctrl.ReadRegisters(r.liveIDs[i])
		if err != nil {
			return err
		}
		base[i] = rows
	}

	dst := append([]uint32(nil), base[0][0]...)
	src := base[len(base)-1][0]
	var cerr error
	d := timeReps(func() {
		for i := 0; i < leaves; i++ {
			if err := netwide.MergeAdd.Combine(dst, src); err != nil {
				cerr = err
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	p.combineNsPerBucket = float64(d) / float64(leaves*len(dst))

	var merges []float64
	for rep := 0; rep < probeReps; rep++ {
		ch := make(chan netwide.Leaf, leaves)
		for i := 0; i < leaves; i++ {
			rows := base[i%len(base)]
			cp := make([][]uint32, len(rows))
			for j := range rows {
				cp[j] = append([]uint32(nil), rows[j]...)
			}
			ch <- netwide.Leaf{Switch: i, Rows: cp}
		}
		close(ch)
		t0 := time.Now()
		res, err := netwide.MergeStream(ch, netwide.MergeAdd, netwide.TreeOptions{Task: fleetLiveTask})
		if err != nil {
			return err
		}
		merges = append(merges, ms(time.Since(t0)))
		p.mergeStreamDepth = res.Depth
	}
	p.mergeStreamMs = median(merges)
	return nil
}
