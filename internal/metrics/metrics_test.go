package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEmptySampleIsZero(t *testing.T) {
	s := NewSample()
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Percentile(50) != 0 || s.CI90() != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestMeanStdDev(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almost(s.Mean(), 5, 1e-9) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Sample stddev with n-1: sqrt(32/7).
	if !almost(s.StdDev(), math.Sqrt(32.0/7.0), 1e-9) {
		t.Errorf("stddev = %v", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestAddDurationUsesMilliseconds(t *testing.T) {
	s := NewSample()
	s.AddDuration(1500 * time.Microsecond)
	if !almost(s.Mean(), 1.5, 1e-9) {
		t.Errorf("mean = %v, want 1.5 ms", s.Mean())
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.Percentile(50), 50.5, 1e-9) {
		t.Errorf("p50 = %v", s.Percentile(50))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Errorf("extremes wrong: %v %v", s.Percentile(0), s.Percentile(100))
	}
	if p99 := s.Percentile(99); p99 < 99 || p99 > 100 {
		t.Errorf("p99 = %v", p99)
	}
}

func TestCI90ShrinksWithN(t *testing.T) {
	small, big := NewSample(), NewSample()
	vals := []float64{10, 12, 8, 11, 9}
	for _, v := range vals {
		small.Add(v)
	}
	for i := 0; i < 20; i++ {
		for _, v := range vals {
			big.Add(v)
		}
	}
	if small.CI90() <= big.CI90() {
		t.Errorf("CI must shrink with n: small=%v big=%v", small.CI90(), big.CI90())
	}
}

func TestCI90KnownValue(t *testing.T) {
	// n=2: df=1, t=6.314; sd of {1,3} = sqrt(2); half width = 6.314*sqrt(2)/sqrt(2) = 6.314.
	s := NewSample()
	s.Add(1)
	s.Add(3)
	if !almost(s.CI90(), 6.314, 1e-9) {
		t.Errorf("CI90 = %v, want 6.314", s.CI90())
	}
}

// TestMedianCI90OrderStatistics: for n = 12 the 90% interval of the median
// runs from the 3rd to the 10th order statistic (P(Bin(12, 1/2) <= 2) is
// 1.9%, <= 3 is 7.3%), so outliers beyond those ranks cannot move it.
func TestMedianCI90OrderStatistics(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	s.Add(1e6)
	s.Add(-1e6)
	// Sorted: -1e6, 1, 2, ..., 10, 1e6 — x(3) = 2, x(10) = 9.
	if got := s.MedianCI90(); !almost(got, 3.5, 1e-9) {
		t.Errorf("MedianCI90 = %v, want 3.5", got)
	}
	small := NewSample()
	for _, v := range []float64{1, 2, 5} {
		small.Add(v)
	}
	if got := small.MedianCI90(); !almost(got, 2, 1e-9) {
		t.Errorf("MedianCI90 of n=3 = %v, want the half-range 2", got)
	}
	if got := NewSample().MedianCI90(); got != 0 {
		t.Errorf("empty MedianCI90 = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample()
	s.Add(1)
	s.Add(2)
	sum := s.Summarize()
	if sum.N != 2 || sum.Mean != 1.5 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Errorf("unseeded EWMA = %v", e.Value())
	}
	e.Observe(10) // first observation seeds directly
	if !almost(e.Value(), 10, 1e-9) {
		t.Errorf("seeded EWMA = %v, want 10", e.Value())
	}
	e.Observe(20) // 0.5*20 + 0.5*10
	if !almost(e.Value(), 15, 1e-9) {
		t.Errorf("EWMA = %v, want 15", e.Value())
	}
	e.Observe(0) // decays, never snaps to the trough
	if !almost(e.Value(), 7.5, 1e-9) {
		t.Errorf("EWMA = %v, want 7.5", e.Value())
	}
}

func TestEWMAConcurrentObserve(t *testing.T) {
	e := NewEWMA(0.125)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				e.Observe(8)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if !almost(e.Value(), 8, 1e-9) {
		t.Errorf("constant-input EWMA = %v, want 8", e.Value())
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := NewSample()
		for _, v := range vals {
			s.Add(v)
		}
		pp := math.Mod(math.Abs(p), 100)
		got := s.Percentile(pp)
		return got >= s.Min()-1e-9 && got <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	// Inputs are folded into the magnitude range of real latencies
	// (milliseconds); the naive sum is not meant for ±1e308 extremes.
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(math.Mod(v, 1e6))
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
