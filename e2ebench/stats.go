package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile of d (d is sorted in place).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
