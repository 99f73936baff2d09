package mmtrace

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines is the goroutine-leak gate: everything a test started
// must exit within 5 s.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitParked blocks until n goroutines are parked on p.
func waitParked(t *testing.T, p *parker, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.waiters.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want %d", p.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRingStress drives many producers and consumers through a small ring
// (forcing wraparound and both stall paths) and verifies every span is
// delivered exactly once. Run under -race this is the ring's memory-order
// proof; the goroutine gate at the end asserts nothing leaks.
func TestRingStress(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	before := runtime.NumGoroutine()

	r := NewRing(64) // small: guarantees full-ring stalls and wraparound
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			spans := make([]Span, 0, 7) // odd chunking exercises partial pushes
			for i := 0; i < perProd; i++ {
				spans = append(spans, Span{Src: int32(p), Lo: int64(i), Hi: int64(i + 1)})
				if len(spans) == cap(spans) {
					r.PushBatch(spans)
					spans = spans[:0]
				}
			}
			r.PushBatch(spans)
		}(p)
	}
	go func() {
		wg.Wait()
		r.Close()
	}()

	var seen [producers][]int64
	var mu sync.Mutex
	var total atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			dst := make([]Span, 5)
			local := make([][]int64, producers)
			for {
				n := r.PopBatch(dst)
				if n == 0 {
					break
				}
				for _, s := range dst[:n] {
					if s.Hi != s.Lo+1 {
						t.Errorf("span corrupted: %+v", s)
						return
					}
					local[s.Src] = append(local[s.Src], s.Lo)
				}
				total.Add(int64(n))
			}
			mu.Lock()
			for p := range local {
				seen[p] = append(seen[p], local[p]...)
			}
			mu.Unlock()
		}()
	}
	cwg.Wait()

	if got := total.Load(); got != producers*perProd {
		t.Fatalf("consumed %d spans, want %d", got, producers*perProd)
	}
	for p := 0; p < producers; p++ {
		marks := make([]bool, perProd)
		for _, lo := range seen[p] {
			if lo < 0 || lo >= perProd {
				t.Fatalf("producer %d: span %d out of range", p, lo)
			}
			if marks[lo] {
				t.Fatalf("producer %d: span %d delivered twice", p, lo)
			}
			marks[lo] = true
		}
		for i, ok := range marks {
			if !ok {
				t.Fatalf("producer %d: span %d never delivered", p, i)
			}
		}
	}
	st := r.Stats()
	if st.Spans != producers*perProd {
		t.Fatalf("ring counted %d spans, want %d", st.Spans, producers*perProd)
	}
	if st.Occupancy != 0 {
		t.Fatalf("drained ring occupancy = %d", st.Occupancy)
	}

	waitGoroutines(t, before)
}

// TestRingLostWakeupStress hunts lost wakeups in the park/wake protocol:
// 8 producers and 4 consumers on rings of 2 and 4 slots, so nearly every
// push and pop parks. Producers push chunks larger than the ring (the
// claim is split) and consumers pause at random, shifting which side
// waits. Every span must arrive exactly once before a 10 s deadline — a
// lost wakeup shows as a hang, not a wrong count.
func TestRingLostWakeupStress(t *testing.T) {
	const (
		producers = 8
		consumers = 4
		perProd   = 3000
	)
	for _, capacity := range []int{2, 4} {
		before := runtime.NumGoroutine()
		r := NewRing(capacity)
		var pwg sync.WaitGroup
		for p := 0; p < producers; p++ {
			pwg.Add(1)
			go func(p int) {
				defer pwg.Done()
				rng := rand.New(rand.NewSource(int64(p)))
				for i := 0; i < perProd; {
					n := 1 + rng.Intn(3*capacity) // up to 3x the ring
					if n > perProd-i {
						n = perProd - i
					}
					chunk := make([]Span, n)
					for j := range chunk {
						chunk[j] = Span{Src: int32(p), Lo: int64(i + j), Hi: int64(i + j + 1)}
					}
					r.PushBatch(chunk)
					i += n
				}
			}(p)
		}
		go func() {
			pwg.Wait()
			r.Close()
		}()

		counts := make([]atomic.Int32, producers*perProd)
		var cwg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			cwg.Add(1)
			go func(c int) {
				defer cwg.Done()
				rng := rand.New(rand.NewSource(int64(100 + c)))
				dst := make([]Span, 1+c) // mixed batch sizes
				for {
					n := r.PopBatch(dst)
					if n == 0 {
						return
					}
					for _, s := range dst[:n] {
						counts[int(s.Src)*perProd+int(s.Lo)].Add(1)
					}
					switch rng.Intn(64) {
					case 0:
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					case 1:
						runtime.Gosched()
					}
				}
			}(c)
		}
		done := make(chan struct{})
		go func() { cwg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("cap %d: ring hung (lost wakeup?): stats %+v", capacity, r.Stats())
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("cap %d: producer %d span %d delivered %d times", capacity, i/perProd, i%perProd, got)
			}
		}
		waitGoroutines(t, before)
	}
}

// TestRingCloseWakesParkedConsumers parks every consumer on an empty ring:
// Close must wake them all with the closed signal.
func TestRingCloseWakesParkedConsumers(t *testing.T) {
	const consumers = 4
	before := runtime.NumGoroutine()
	r := NewRing(4)
	got := make(chan int, consumers)
	for c := 0; c < consumers; c++ {
		go func() { got <- r.PopBatch(make([]Span, 2)) }()
	}
	waitParked(t, &r.notEmpty, consumers)
	r.Close()
	for c := 0; c < consumers; c++ {
		select {
		case n := <-got:
			if n != 0 {
				t.Fatalf("closed empty ring returned %d spans", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Close woke only %d of %d parked consumers", c, consumers)
		}
	}
	waitGoroutines(t, before)
}

// TestRingPopStallCountsWaits checks the pop-stall counter counts waits,
// not wake-ups: one consumer parked on an empty ring for 50 ms, then fed
// one span, records exactly one stall.
func TestRingPopStallCountsWaits(t *testing.T) {
	r := NewRing(4)
	got := make(chan Span, 1)
	go func() {
		dst := make([]Span, 1)
		if r.PopBatch(dst) == 1 {
			got <- dst[0]
		}
		close(got)
	}()
	waitParked(t, &r.notEmpty, 1)
	time.Sleep(50 * time.Millisecond)
	r.PushBatch([]Span{{Lo: 7, Hi: 8}})
	select {
	case s := <-got:
		if s.Lo != 7 {
			t.Fatalf("consumer got %+v, want the pushed span", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the push did not wake the parked consumer")
	}
	st := r.Stats()
	if st.PopStalls != 1 || st.PushStalls != 0 {
		t.Fatalf("stalls = push %d / pop %d, want 0 / 1", st.PushStalls, st.PopStalls)
	}
}

// TestRingParkZeroAlloc is the allocation gate for the park/wake path:
// on a 2-slot ring fed 3-span pushes the producer parks on nearly every
// pop, and a park/wake cycle must not allocate.
func TestRingParkZeroAlloc(t *testing.T) {
	r := NewRing(2)
	var stop atomic.Bool
	go func() {
		defer r.Close()
		spans := make([]Span, 3)
		for !stop.Load() {
			r.PushBatch(spans)
		}
	}()
	dst := make([]Span, 1)
	allocs := testing.AllocsPerRun(1000, func() { r.PopBatch(dst) })
	stop.Store(true)
	for r.PopBatch(dst) != 0 {
	}
	if allocs != 0 {
		t.Fatalf("park/wake allocates %.1f objects per pop, want 0", allocs)
	}
	if st := r.Stats(); st.PushStalls == 0 {
		t.Fatalf("producer never parked: %+v", st)
	}
}

func TestRingCloseDrain(t *testing.T) {
	r := NewRing(8)
	r.PushBatch([]Span{{Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}})
	r.Close()
	dst := make([]Span, 8)
	if n := r.PopBatch(dst); n != 2 {
		t.Fatalf("drained %d spans, want 2 before the closed signal", n)
	}
	if n := r.PopBatch(dst); n != 0 {
		t.Fatalf("closed+empty ring returned %d spans", n)
	}
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {700, 1024}} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Fatalf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingBatchLargerThanCapacity(t *testing.T) {
	r := NewRing(4)
	spans := make([]Span, 10)
	for i := range spans {
		spans[i] = Span{Lo: int64(i), Hi: int64(i + 1)}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.PushBatch(spans) // must chunk, not deadlock on itself
		r.Close()
	}()
	var got []Span
	dst := make([]Span, 3)
	for {
		n := r.PopBatch(dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	<-done
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i, s := range got {
		if s.Lo != int64(i) {
			t.Fatalf("span %d out of order: %+v", i, s)
		}
	}
}
