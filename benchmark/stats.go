package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of an ascending sample,
// or 0 for an empty one.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// mean returns the arithmetic mean of a sample, or 0 for an empty one.
func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// median returns the median of v (the mean of the two middle values for
// an even count), or 0 for an empty sample. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// summary is one metric over the rounds of a run: the median round,
// the spread and the sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize folds one metric's per-round values.
func summarize(unit string, v []float64) summary {
	s := summary{Value: median(v), Unit: unit, N: len(v)}
	for i, x := range v {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}
