package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"flymon/internal/mmtrace"
	"flymon/internal/netwide"
)

// Each output-correctness check must pass on the real engine and trip when
// a single register bucket (or ledger bucket) is corrupted.

func testTrace(t *testing.T) *mmtrace.Trace {
	t.Helper()
	tr, err := synthTrace(filepath.Join(t.TempDir(), "t.fmt"), 7, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// corruptReader flips one bucket of one task's readout.
type corruptReader struct {
	registerReader
	task, row, bucket int
}

func (c corruptReader) ReadRegisters(id int) ([][]uint32, error) {
	rows, err := c.registerReader.ReadRegisters(id)
	if err == nil && id == c.task {
		rows[c.row][c.bucket] ^= 1
	}
	return rows, err
}

func TestReplayOracleCheck(t *testing.T) {
	tr := testTrace(t)
	ctrl, err := newLoadedController(9, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	oracle, err := newLoadedController(9, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if err := checkReplayOracle(ctrl, oracle, tr, tr.Frames()); err != nil {
		t.Fatalf("engine vs oracle: %v", err)
	}
	tasks := oracle.Tasks()
	bad := corruptReader{registerReader: ctrl, task: tasks[4].ID, row: 2, bucket: 1234}
	if err := compareTasks(tasks, bad, oracle); err == nil {
		t.Fatal("check passed with one corrupted bucket")
	} else {
		t.Logf("tripped: %v", err)
	}
}

func TestFleetMergeCheck(t *testing.T) {
	tr := testTrace(t)
	r, err := newFleetRig(tr, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	res := r.runRounds(0, 2, nil)
	if res.ops.failed != 0 || res.checkErr != nil {
		t.Fatalf("rounds: %d failed ops, check: %v", res.ops.failed, res.checkErr)
	}
	epoch, err := r.fleet.RotateEpoch(fleetEpochTask)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := r.fleet.QueryEpochRows(fleetEpochTask, epoch, netwide.EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkEpoch(rows, epoch); err != nil {
		t.Fatalf("epoch check on a correct merge: %v", err)
	}
	rows[1][77]++
	if err := r.checkEpoch(rows, epoch); err == nil {
		t.Fatal("epoch check passed with one corrupted bucket")
	}
	live, _, err := r.fleet.MergedRows(fleetLiveTask, netwide.MergeAdd, netwide.EngineTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkLive(live); err != nil {
		t.Fatalf("live check on a correct merge: %v", err)
	}
	live[0][5] ^= 1 << 31
	if err := r.checkLive(live); err == nil {
		t.Fatal("live check passed with one corrupted bucket")
	}
}

func TestFreeBucketLeakCheck(t *testing.T) {
	tr := testTrace(t)
	r, err := newReconfigRig(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.replay, err = startReplay(r.d.ctrl, tr, false); err != nil {
		t.Fatal(err)
	}
	res := r.runReconfig(time.Millisecond, len(menu))
	if res.ops.failed != 0 {
		t.Fatalf("%d of %d menu ops failed", res.ops.failed, res.ops.attempted)
	}
	if len(res.effectMs) != 4 {
		t.Fatalf("%d deploys reached their first packet, want 4", len(res.effectMs))
	}
	if err := checkNoLeak(res.freeBefore, res.freeAfter); err != nil {
		t.Fatal(err)
	}
	res.freeAfter[3][1]--
	if err := checkNoLeak(res.freeBefore, res.freeAfter); err == nil {
		t.Fatal("leak check passed with one bucket missing from the ledger")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Fatalf("p90 = %v", got)
	}
	blocks := make([]float64, 500)
	for i := range blocks {
		blocks[i] = float64(i % 100)
	}
	for i := 400; i < 500; i++ {
		blocks[i] = 1e9 // a hiccup covering the last block only
	}
	if got := quantile(blocks, 0.9); got != 1e9 {
		t.Fatalf("p90 = %v", got)
	}
	if got := blockQuantile(blocks, 0.9); math.Abs(got-89.1) > 1e-9 {
		t.Fatalf("block p90 = %v", got)
	}
	if got := sumRows([][][]uint32{{{1 << 31, 1}}, {{1 << 31, 2}}}); got[0][0] != 1<<32-1 || got[0][1] != 3 {
		t.Fatalf("saturating sum = %v", got)
	}
}
