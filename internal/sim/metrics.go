package sim

import (
	"fmt"
	"math"
	"sort"
)

// Series accumulates scalar samples and offers summary statistics. The zero
// value is ready to use.
type Series struct {
	Name    string
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (s *Series) Observe(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
}

// N returns the number of samples.
func (s *Series) N() int { return len(s.samples) }

// Sum returns the sum of samples.
func (s *Series) Sum() float64 {
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.samples))
}

// Min returns the smallest sample, or +Inf for an empty series.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.samples {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample, or -Inf for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples. It returns 0 for an empty series.
func (s *Series) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.samples[idx]
}

// String summarises the series.
func (s *Series) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.Name, s.N(), s.Mean(), s.Min(), s.Quantile(0.5), s.Quantile(0.95), s.Max())
}
