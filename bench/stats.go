package main

import (
	"sort"
	"time"
)

// samples is an append-only list of durations in nanoseconds, stored in
// fixed-size chunks so that recording a visit never copies earlier ones
// (a growing slice would charge its re-allocations to the window's
// allocation metrics and to the visit that triggered them).
type samples struct {
	chunks [][]int64
}

const sampleChunk = 1 << 14

func (s *samples) add(d time.Duration) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == sampleChunk {
		s.chunks = append(s.chunks, make([]int64, 0, sampleChunk))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, int64(d))
}

func (s *samples) len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// bytes is the heap the buffer holds, subtracted from heap_live_mb.
func (s *samples) bytes() int64 { return int64(len(s.chunks)) * sampleChunk * 8 }

// sortedMs merges sample lists into one ascending slice of milliseconds.
func sortedMs(lists ...*samples) []float64 {
	n := 0
	for _, l := range lists {
		n += l.len()
	}
	out := make([]float64, 0, n)
	for _, l := range lists {
		for _, c := range l.chunks {
			for _, ns := range c {
				out = append(out, float64(ns)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// percentile returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it. Nearest rank never invents a latency no visit had.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(sorted []float64) float64 { return percentile(sorted, 0.5) }

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999}

// tailQuantile picks the highest percentile of the ladder that still has
// at least ten samples beyond it; below that a percentile is one or two
// visits and does not repeat between runs.
func tailQuantile(n int) float64 {
	q := tailLadder[0]
	for _, cand := range tailLadder {
		if float64(n)*(1-cand) >= 10-1e-6 { // 100*(1-0.9) is 9.999999999999998
			q = cand
		}
	}
	return q
}
