package stats

import "fmt"

// Summary condenses a sample into its descriptive statistics.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P10    float64
	Median float64
	P90    float64
	P98    float64
	Max    float64
}

// Summarize computes a Summary; it returns the zero Summary for an empty
// sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	e := MustEmpirical(xs)
	return Summary{
		N:      e.N(),
		Mean:   e.Mean(),
		Std:    e.Std(),
		Min:    e.Min(),
		P10:    e.Quantile(0.10),
		Median: e.Median(),
		P90:    e.Quantile(0.90),
		P98:    e.Quantile(0.98),
		Max:    e.Max(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g p10=%.3g med=%.3g p90=%.3g p98=%.3g max=%.3g",
		s.N, s.Mean, s.Std, s.Min, s.P10, s.Median, s.P90, s.P98, s.Max)
}

// Histogram counts samples into equal-width bins over [lo, hi); samples
// outside the range land in the first or last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if hi <= lo || n <= 0 {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	idx := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Mode returns the centre of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(best)+0.5)
}
