package mmtrace

import (
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/packet"
)

func openTestTrace(t *testing.T, n int) (*Trace, []packet.Packet) {
	t.Helper()
	ps := genPackets(n)
	path, _ := writeTraceFile(t, ps)
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, ps
}

// TestReplayerDeliversEveryFrame drains a replayer with several concurrent
// consumers and checks that every frame of every pass arrives exactly once
// (tallied per frame index).
func TestReplayerDeliversEveryFrame(t *testing.T) {
	const frames, passes, workers = 10_000, 3, 4
	tr, ps := openTestTrace(t, frames)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: workers,
		Batch:   64,
		Passes:  passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int32, frames)
	rep.Start()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Spans are Batch-aligned and whole, so every delivered batch
			// must be a span-aligned window of the reference slice; locate
			// it by content and tally its frames.
			for {
				batch := rep.Next(w)
				if batch == nil {
					return
				}
				lo := findAlignedWindow(ps, batch, 64)
				if lo < 0 {
					t.Error("batch does not match any span-aligned window of the trace")
					return
				}
				for i := range batch {
					counts[lo+i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rep.Packets(); got != frames*passes {
		t.Fatalf("delivered %d packets, want %d", got, frames*passes)
	}
	for i := range counts {
		if c := counts[i].Load(); c != passes {
			t.Fatalf("frame %d delivered %d times, want %d", i, c, passes)
		}
	}
	if st := rep.Stats(); st.Producers != 0 {
		t.Fatalf("producers still live: %d", st.Producers)
	}
}

// findAlignedWindow locates batch within ps at a batch-size-aligned offset
// (the only offsets the replayer emits).
func findAlignedWindow(ps, batch []packet.Packet, align int) int {
	for lo := 0; lo+len(batch) <= len(ps); lo += align {
		match := true
		for i := range batch {
			if ps[lo+i] != batch[i] {
				match = false
				break
			}
		}
		if match {
			return lo
		}
	}
	return -1
}

// TestReplayerMultiTrace replays two traces (two ring producers) and
// checks the combined delivery count.
func TestReplayerMultiTrace(t *testing.T) {
	trA, _ := openTestTrace(t, 3000)
	trB, _ := openTestTrace(t, 2000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{trA, trB},
		Workers: 2,
		Batch:   128,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				b := rep.Next(w)
				if b == nil {
					return
				}
				total.Add(uint64(len(b)))
			}
		}(w)
	}
	wg.Wait()
	if total.Load() != 5000 {
		t.Fatalf("delivered %d packets, want 5000", total.Load())
	}
}

// TestReplayerStop ends a loop-mode replay: after Stop the consumers must
// drain and Next must return nil on every worker — the goroutine-leak gate
// for the producer side. The second case lands Stop while the producer is
// parked on a full ring: the consumers' next releases must wake it to see
// Stop and close the ring.
func TestReplayerStop(t *testing.T) {
	for _, tc := range []struct {
		name       string
		parkedFull bool
	}{{"running", false}, {"producer-parked-full", true}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr, _ := openTestTrace(t, 1000)
			rep, err := NewReplayer(ReplayConfig{
				Traces:  []*Trace{tr},
				Workers: 2,
				Batch:   64,
				Passes:  -1, // loop forever
			})
			if err != nil {
				t.Fatal(err)
			}
			rep.Start()
			if tc.parkedFull {
				// No consumer yet: the producer fills the ring and parks.
				waitParked(t, &rep.Ring().notFull, 1)
				if occ := rep.Ring().Occupancy(); occ != rep.Ring().Cap() {
					t.Fatalf("producer parked with occupancy %d of %d", occ, rep.Ring().Cap())
				}
				rep.Stop()
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for rep.Next(w) != nil {
					}
				}(w)
			}
			if !tc.parkedFull {
				time.Sleep(20 * time.Millisecond) // let it loop a few passes
				rep.Stop()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("consumers did not drain after Stop")
			}
			if !tc.parkedFull && rep.Packets() < 1000 {
				t.Fatalf("loop mode delivered only %d packets", rep.Packets())
			}
			if st := rep.Stats(); tc.parkedFull && st.Ring.PushStalls == 0 {
				t.Fatalf("producer never stalled on the full ring: %+v", st.Ring)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestReplayerLeavesNetpollAlone is the scheduler-starvation regression
// gate: a loop-mode replay keeps its ring full, and its producer must park
// rather than stay runnable, or on 2 Ps the scheduler stops polling the
// network itself and loopback round trips wait for sysmon (~10 ms). 200
// TCP ping-pongs beside a replay whose consumer busy-works ~200 µs per
// span must keep a median under 3 ms.
func TestReplayerLeavesNetpollAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr, _ := openTestTrace(t, 10_000)
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}, Workers: 1, Batch: 64, Passes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for rep.Next(0) != nil {
			for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
			}
		}
	}()
	defer func() {
		rep.Stop()
		<-consumed
	}()
	waitParked(t, &rep.Ring().notFull, 1) // ring full: the steady state

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [1]byte
		for {
			if _, err := c.Read(b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rounds = 200
	rtts := make([]time.Duration, rounds)
	var b [1]byte
	for i := range rtts {
		// Idle between pings like an open-loop client, so both ends are
		// parked in netpoll when the byte arrives. Spinning, each hop
		// waited for sysmon: ~20 ms per round trip.
		time.Sleep(time.Millisecond)
		start := time.Now()
		if _, err := c.Write(b[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(b[:]); err != nil {
			t.Fatal(err)
		}
		rtts[i] = time.Since(start)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if med := rtts[rounds/2]; med > 3*time.Millisecond {
		t.Fatalf("loopback ping-pong median %v beside a full-ring replay (p90 %v), want < 3ms",
			med, rtts[rounds*9/10])
	}
}

// TestReplayerNextZeroAlloc is the steady-state allocation gate: once the
// replay is running, Next must not allocate.
func TestReplayerNextZeroAlloc(t *testing.T) {
	tr, _ := openTestTrace(t, 100_000)
	rep, err := NewReplayer(ReplayConfig{
		Traces:  []*Trace{tr},
		Workers: 1,
		Batch:   256,
		Passes:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer func() {
		rep.Stop()
		for rep.Next(0) != nil {
		}
	}()
	for i := 0; i < 16; i++ { // warm up
		if rep.Next(0) == nil {
			t.Fatal("replay ended during warmup")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rep.Next(0) == nil {
			t.Fatal("replay ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

func TestReplayerConfigValidation(t *testing.T) {
	tr, _ := openTestTrace(t, 10)
	if _, err := NewReplayer(ReplayConfig{Workers: 1}); err == nil {
		t.Fatal("no traces accepted")
	}
	if _, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	rep, err := NewReplayer(ReplayConfig{Traces: []*Trace{tr}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
		for rep.Next(0) != nil {
		}
	}()
	rep.Start()
}
