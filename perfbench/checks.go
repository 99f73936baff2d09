package main

import (
	"fmt"
	"math"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
)

// Output-correctness checks. Each is a pure comparison over readouts the
// workloads take through public APIs, so the benchmark's test can show it
// trips on a single corrupted bucket.

// compareRows reports the first bucket where got differs from want.
func compareRows(what string, got, want [][]uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s row %d: %d buckets, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("%s row %d bucket %d: got %d, want %d", what, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// sumRows is the element-wise saturating sum of per-switch readouts — the
// reference a fleet-wide add merge must reproduce.
func sumRows(parts [][][]uint32) [][]uint32 {
	if len(parts) == 0 {
		return nil
	}
	out := make([][]uint32, len(parts[0]))
	for i, row := range parts[0] {
		out[i] = append([]uint32(nil), row...)
	}
	for _, p := range parts[1:] {
		for i := range out {
			if i >= len(p) {
				break
			}
			for j := range out[i] {
				if j >= len(p[i]) {
					break
				}
				s := uint64(out[i][j]) + uint64(p[i][j])
				if s > math.MaxUint32 {
					s = math.MaxUint32
				}
				out[i][j] = uint32(s)
			}
		}
	}
	return out
}

// checkMergedSum verifies a fleet merge against the element-wise sum of
// the switches' own readouts.
func checkMergedSum(what string, merged [][]uint32, parts [][][]uint32) error {
	return compareRows(what, merged, sumRows(parts))
}

// leakedBuckets counts register buckets whose free/allocated state differs
// between two FreeBuckets snapshots ([group][cmu]).
func leakedBuckets(before, after [][]int) int {
	leaked := 0
	for g := range before {
		for c := range before[g] {
			a := 0
			if g < len(after) && c < len(after[g]) {
				a = after[g][c]
			}
			if d := before[g][c] - a; d != 0 {
				leaked += abs(d)
			}
		}
	}
	return leaked
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkNoLeak fails when a reconfiguration sequence that removed every
// task it added left the free-bucket ledger changed.
func checkNoLeak(before, after [][]int) error {
	if n := leakedBuckets(before, after); n != 0 {
		return fmt.Errorf("free-bucket ledger leaked %d buckets", n)
	}
	return nil
}

// checkReplayOracle replays the first frames of tr once through ctrl's
// worker pool (the FrameView-native engine) and sequentially through a
// fresh oracle controller's ProcessBatch, then compares every task's
// registers bucket for bucket. Both controllers must hold the same task
// layout and fresh registers.
func checkReplayOracle(ctrl, oracle *controlplane.Controller, tr *mmtrace.Trace, frames int) error {
	if frames > tr.Frames() {
		frames = tr.Frames()
	}
	prefix, err := prefixTrace(tr, frames)
	if err != nil {
		return err
	}
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{
		Traces: []*mmtrace.Trace{prefix}, Workers: ctrl.Workers(), Passes: 1,
	})
	if err != nil {
		return err
	}
	rep.Start()
	ctrl.ProcessFrameSource(rep)

	buf := make([]packet.Packet, 4096)
	for lo := 0; lo < frames; lo += len(buf) {
		n := min(len(buf), frames-lo)
		prefix.DecodeRange(lo, buf[:n])
		oracle.ProcessBatch(buf[:n])
	}
	return compareTasks(oracle.Tasks(), ctrl, oracle)
}

// registerReader is the readout side of a controller.
type registerReader interface {
	ReadRegisters(id int) ([][]uint32, error)
}

// compareTasks compares every listed task's registers between two
// controllers.
func compareTasks(tasks []*controlplane.Task, got, want registerReader) error {
	for _, t := range tasks {
		w, err := want.ReadRegisters(t.ID)
		if err != nil {
			return err
		}
		g, err := got.ReadRegisters(t.ID)
		if err != nil {
			return err
		}
		if err := compareRows(fmt.Sprintf("replay oracle: task %d", t.ID), g, w); err != nil {
			return err
		}
	}
	return nil
}
