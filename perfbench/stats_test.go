package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v of 1..1000 = %v (%d beyond), want %v (%d beyond)", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

// TestTailPercentileRule pins the reporting rule: the highest candidate
// percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{10000, 99.9, true},
		{1000, 99, true}, // exactly 10 beyond p99
		{999, 95, true},  // 9 beyond p99 is too few
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.wantOK)
		}
		if ok {
			if _, beyond := percentile(seq(c.n), p); beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond, want >= %d", c.n, p, beyond, minBeyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(seq(1000))
	if s.N != 1000 || s.P50 != 500.5 || s.TailP != 99 || s.Tail != 990 || s.Beyond != 10 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if s := summarize(seq(5)); s.TailP != 0 || s.P50 != 3 {
		t.Errorf("summarize(1..5) = %+v, want a median and no tail", s)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median sorted its input: %v", xs)
	}
}

// TestUnstolen checks which passes the end-to-end metrics keep: those
// that lost under 1% of their wall time to steal, or else the one that
// lost the least.
func TestUnstolen(t *testing.T) {
	pass := func(wallS, stealS float64) passStats {
		return passStats{wall: time.Duration(wallS * float64(time.Second)), steal: stealS}
	}
	walls := func(ps []passStats) []float64 {
		var out []float64
		for _, p := range ps {
			out = append(out, p.wall.Seconds())
		}
		return out
	}
	for _, c := range []struct {
		name   string
		passes []passStats
		want   []float64
	}{
		{"all clean", []passStats{pass(1, 0), pass(2, 0.01)}, []float64{1, 2}},
		{"some stolen", []passStats{pass(1, 0.01), pass(2, 0.019), pass(4, 0.5)}, []float64{2}},
		{"none clean", []passStats{pass(1, 0.2), pass(8, 0.4), pass(2, 0.3)}, []float64{8}},
	} {
		got := walls(unstolen(c.passes))
		if len(got) != len(c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
