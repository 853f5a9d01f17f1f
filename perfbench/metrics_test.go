package main

import (
	"math"
	"testing"

	"github.com/mcn-arch/mcn/internal/stats"
)

// rungWith is an outcome whose SLO latency is p99 (µs).
func rungWith(p99us float64) outcome { return outcome{sloP99: p99us * 1e3} }

func TestKneeIsHighestRungMeetingTheSLO(t *testing.T) {
	ladder := []outcome{rungWith(5), rungWith(9), rungWith(45), rungWith(30), rungWith(120)}
	idx, ok := kneeOf(ladder)
	if !ok || idx != 3 {
		t.Fatalf("knee = %d, %v; want rung 3 (the highest that meets 40µs, past a dip)", idx, ok)
	}
}

func TestKneeGuardRejectsUnbracketedLadders(t *testing.T) {
	for name, ladder := range map[string][]outcome{
		"top rung meets":    {rungWith(5), rungWith(20), rungWith(39)},
		"bottom rung fails": {rungWith(41), rungWith(60), rungWith(90)},
		"single rung":       {rungWith(5)},
		"failures are +Inf": {rungWith(5), {sloP99: math.Inf(1)}, rungWith(10)},
	} {
		if idx, ok := kneeOf(ladder); ok {
			t.Errorf("%s: knee %d accepted; the ladder does not bracket it", name, idx)
		}
	}
}

func hdrOf(vals ...int64) *stats.HDR {
	h := &stats.HDR{}
	for _, v := range vals {
		h.Record(v)
	}
	return h
}

func TestSLOQuantileRanksFailuresAboveCompletions(t *testing.T) {
	// 1000 completions at 10µs. With 1000 attempted the p99 is 10µs.
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 10_000
	}
	h := hdrOf(vals...)
	if got := sloQuantile(h, 1000, 0.99); got != h.Quantile(0.99) {
		t.Fatalf("no failures: slo p99 %v, want %v", got, h.Quantile(0.99))
	}
	// 1010 attempted: the 10 unanswered ones take ranks 1001..1010, and
	// rank ceil(0.99*1010) = 1000 is still a completion.
	if got := sloQuantile(h, 1010, 0.99); math.IsInf(got, 1) {
		t.Fatalf("1%% failures: slo p99 is +Inf, want the completion at rank 1000")
	}
	// 1020 attempted: rank 1010 falls among the failures.
	if got := sloQuantile(h, 1020, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("2%% failures: slo p99 %v, want +Inf", got)
	}
	if !math.IsInf(sloQuantile(&stats.HDR{}, 0, 0.99), 1) {
		t.Fatal("nothing attempted must not meet the SLO")
	}
}

func TestTailBeyondNeedsTenSamples(t *testing.T) {
	for _, c := range []struct {
		n, want int64
	}{{9999, 9}, {10000, 10}, {10999, 10}, {11000, 11}, {100, 0}} {
		if got := tailBeyond(c.n, 0.999); got != c.want {
			t.Errorf("tailBeyond(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if tailBeyond(9999, 0.999) >= minTailSamples || tailBeyond(10000, 0.999) < minTailSamples {
		t.Error("the p99.9 cut-over must be at 10000 samples")
	}
}

func TestOkFracCountsMissesAndUnansweredAsFailures(t *testing.T) {
	o := outcome{n: 950, misses: 20, errors: 10, shed: 15, unfinished: 5}
	o.attempted = o.n + o.errors + o.shed + o.unfinished
	if o.attempted != 980 || o.ok() != 930 {
		t.Fatalf("attempted %d ok %d, want 980 and 930", o.attempted, o.ok())
	}
}

func TestQuantileInterpolatesBetweenBuckets(t *testing.T) {
	var vals []int64
	for i := 0; i < 1000; i++ {
		vals = append(vals, 4000+int64(i%200))
	}
	h := hdrOf(vals...)
	prev := 0.0
	for q := 0.05; q < 1; q += 0.05 {
		v := quantile(h, q)
		if v < float64(h.Min()) || v > float64(h.Max()) || v < prev {
			t.Fatalf("quantile(%.2f) = %v: outside [min, max] or below quantile of a lower q (%v)", q, v, prev)
		}
		prev = v
	}
	// Two seeds whose medians fall in the same bucket still read apart.
	a, b := hdrOf(vals[:999]...), hdrOf(vals[1:]...)
	if a.Quantile(0.5) == b.Quantile(0.5) && quantile(a, 0.5) == quantile(b, 0.5) {
		t.Fatalf("interpolated medians are equal (%v)", quantile(a, 0.5))
	}
	if got := quantile(hdrOf(7000), 0.5); got != 7000 {
		t.Fatalf("single sample: %v", got)
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
}
