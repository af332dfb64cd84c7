package main

import (
	"math"
	"sort"
	"time"
)

// durations collects latency samples of one kind.
type durations []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank method, in
// microseconds with full precision; 0 for an empty set.
func (d durations) quantileUS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k].Nanoseconds()) / 1e3
}

// classed collects latency samples of one kind split by class: the query
// a read asked and whether it was prepared, or whether a write inserted or
// deleted.
type classed map[int]durations

func (c classed) add(class int, d time.Duration) { c[class] = append(c[class], d) }

// merge adds o's samples to c.
func (c classed) merge(o classed) {
	for k, d := range o {
		c[k] = append(c[k], d...)
	}
}

// count is the number of samples.
func (c classed) count() int {
	n := 0
	for _, d := range c {
		n += len(d)
	}
	return n
}

// all returns every sample, whatever its class.
func (c classed) all() durations {
	var all durations
	for _, d := range c {
		all = append(all, d...)
	}
	return all
}

// mixP50US is the typical latency of the mix in microseconds: the geometric
// mean over the samples of their class's median, so each class's median
// weighs by the class's share of the mix; 0 for no samples. A single median
// over all samples would sit between classes whose latencies differ
// severalfold (a prepared read and a parsed one, a selective query and a
// scan, an insert and a DRed delete), where a shift of a few percent in the
// mix moves it by a third.
func (c classed) mixP50US() float64 {
	n, logSum := 0, 0.0
	for _, d := range c {
		n += len(d)
		logSum += float64(len(d)) * math.Log(d.quantileUS(0.5))
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
