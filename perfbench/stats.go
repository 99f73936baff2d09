package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Reported percentiles are medians of block percentiles: the samples, in
// the order they were taken, are cut into up to maxBlocks consecutive
// blocks of at least minBlock samples, each block's quantile is taken, and
// the median of those is reported. A host hiccup then moves one block's
// tail instead of the run's, while every block's p90 still has ten samples
// beyond it.
const (
	maxBlocks = 5
	minBlock  = 100
)

func blockQuantile(xs []float64, q float64) float64 {
	k := min(maxBlocks, len(xs)/minBlock)
	if k <= 1 {
		return quantile(xs, q)
	}
	per := make([]float64, k)
	for b := range per {
		per[b] = quantile(xs[b*len(xs)/k:(b+1)*len(xs)/k], q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// liveHeapMB collects garbage and returns the live heap in MiB. Called at
// phase boundaries, where no operation is in flight, it reads the heap the
// rigs retain; a sample taken mid-phase would also count whatever the
// collector happened to find in flight, which does not repeat across runs.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
