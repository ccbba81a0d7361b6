package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatalf("mean=%v var=%v ci=%v", s.Mean(), s.Var(), s.CI95())
	}
}

func TestKnownMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almost(s.Mean(), 5) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almost(s.Var(), 32.0/7.0) {
		t.Fatalf("var = %v, want %v", s.Var(), 32.0/7.0)
	}
}

func TestCI95Shrinks(t *testing.T) {
	mk := func(n int) float64 {
		var s Sample
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				s.Add(10)
			} else {
				s.Add(20)
			}
		}
		return s.CI95()
	}
	if !(mk(100) < mk(10)) {
		t.Fatal("CI should shrink with more observations")
	}
}

func TestCI95Known(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4} { // mean 2.5, sd ~1.29099, se ~0.645497
		s.Add(x)
	}
	want := 1.959963984540054 * s.Std() / 2
	if !almost(s.CI95(), want) {
		t.Fatalf("ci = %v, want %v", s.CI95(), want)
	}
}

func TestImprovement(t *testing.T) {
	cases := []struct{ z, w, want float64 }{
		{100, 60, 40},
		{100, 100, 0},
		{100, 300, -200}, // the LAPI PUT regression magnitude
		{50, 0, 100},
	}
	for _, c := range cases {
		if got := Improvement(c.z, c.w); !almost(got, c.want) {
			t.Errorf("Improvement(%v,%v) = %v, want %v", c.z, c.w, got, c.want)
		}
	}
	// A zero baseline is degenerate: NaN, not a silent "no improvement".
	if got := Improvement(0, 50); !math.IsNaN(got) {
		t.Errorf("Improvement(0,50) = %v, want NaN", got)
	}
}

func TestSummaryFormat(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	out := s.Summary()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "±") {
		t.Fatalf("summary %q malformed", out)
	}
}

// Property: mean is translation-equivariant and variance is
// translation-invariant.
func TestPropertyTranslation(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) < 2 {
			return true
		}
		var a, b Sample
		for _, r := range raw {
			a.Add(float64(r))
			b.Add(float64(r) + float64(shift))
		}
		return almost(b.Mean(), a.Mean()+float64(shift)) &&
			math.Abs(b.Var()-a.Var()) < 1e-6*(1+a.Var())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min <= mean <= max for any non-empty sample.
func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		lo, hi := float64(raw[0]), float64(raw[0])
		for _, r := range raw {
			s.Add(float64(r))
			lo, hi = min(lo, float64(r)), max(hi, float64(r))
		}
		return lo <= s.Mean()+1e-9 && s.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
