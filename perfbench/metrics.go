package main

import (
	"math"
	"sort"

	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/stats"
)

// outcome is the simulated result of one rung, reduced to what the
// benchmark reports and checks. It is a deterministic function of the
// seed and the rate: two runs of one rung must produce equal outcomes.
type outcome struct {
	// In-window request accounting: attempted requests were generated
	// inside the measured window; each one either completed (n, of which
	// misses returned StatusMiss), errored, was shed at the router, or
	// was still unfinished at the deadline. issued is the sum of the
	// per-shard routed counts, which attempted must equal with shed.
	attempted, issued, n, misses, errors, shed, unfinished, rerouted int64
	qps                                                              float64
	// Completion latencies (ns) and the latency the SLO is judged on.
	p50, p99, p999, sloP99 float64

	batchMean, queueP99, batchWaitMean float64
	admit                              stats.AdmitCounters
	repl                               stats.ReplCounters
	ops                                stats.OpsCounters
}

func outcomeOf(r *serve.Result) outcome {
	o := outcome{
		n: r.N, misses: r.Misses, errors: r.Errors, shed: r.Shed,
		unfinished: r.Unfinished, rerouted: r.Rerouted, qps: r.QPS,
		p50: quantile(&r.Total, 0.5), p99: quantile(&r.Total, 0.99), p999: quantile(&r.Total, 0.999),
		batchMean: r.BatchSize.Mean(), queueP99: r.Queue.Quantile(0.99), batchWaitMean: r.BatchWait.Mean(),
		admit: r.AdmitCounters, repl: r.ReplCounters, ops: r.Ops,
	}
	for _, ss := range r.PerShard {
		o.issued += ss.Issued
	}
	o.attempted = o.n + o.errors + o.shed + o.unfinished
	o.sloP99 = sloQuantile(&r.Total, o.attempted, 0.99)
	return o
}

// ok counts the attempted requests that completed correctly: every
// preloaded key must be found, so a GET miss is a failure too.
func (o outcome) ok() int64 { return o.n - o.misses }

// sloQuantile is the q-quantile of latency over every attempted request,
// with each request that got no answer (errored, shed or unfinished)
// ranked above every completion: a request that fails counts as missing
// any latency limit. It is +Inf when the rank falls among the failures.
func sloQuantile(total *stats.HDR, attempted int64, q float64) float64 {
	if attempted == 0 {
		return math.Inf(1)
	}
	rank := int64(math.Ceil(q * float64(attempted)))
	n := total.N()
	if rank > n {
		return math.Inf(1)
	}
	// Quantile takes a fraction and rounds its rank up; aim half a rank
	// low so float rounding cannot push it to the next sample.
	return total.Quantile((float64(rank) - 0.5) / float64(n))
}

// quantile estimates the q-quantile of h by interpolating, by rank,
// between the midpoints of the two HDR buckets around rank q·n, each
// placed at the centre of the ranks it holds. The bucket midpoint alone
// (HDR.Quantile) moves in steps of about 1.5%, so a rung whose
// percentile stays inside one bucket would read the same for every seed.
func quantile(h *stats.HDR, q float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	at := func(r int64) float64 { return h.Quantile((float64(r) - 0.5) / float64(n)) }
	// span returns the first and last rank whose value equals at(r).
	span := func(r int64) (first, last int64) {
		v := at(r)
		first = r - int64(sort.Search(int(r-1), func(i int) bool { return at(r-1-int64(i)) != v }))
		last = r + int64(sort.Search(int(n-r), func(i int) bool { return at(r+1+int64(i)) != v }))
		return first, last
	}
	target := q * float64(n)
	r := min(max(int64(math.Ceil(target)), 1), n)
	a, b := span(r)
	c := float64(a+b) / 2
	if target >= c && b < n {
		a2, b2 := span(b + 1)
		c2 := float64(a2+b2) / 2
		return at(a) + (target-c)/(c2-c)*(at(b+1)-at(a))
	}
	if target < c && a > 1 {
		a0, b0 := span(a - 1)
		c0 := float64(a0+b0) / 2
		return at(a-1) + (target-c0)/(c-c0)*(at(a)-at(a-1))
	}
	return at(r)
}

// meetsSLO reports whether the rung holds the p99 objective with every
// failure counted as a miss.
func (o outcome) meetsSLO() bool { return o.sloP99 <= sloNs }

// tailBeyond is the number of samples ranked above the q-quantile of n
// samples, the support a tail percentile rests on.
func tailBeyond(n int64, q float64) int64 {
	return n - int64(math.Ceil(q*float64(n)))
}

// minTailSamples is how many samples a reported percentile needs beyond
// it.
const minTailSamples = 10

// kneeOf returns the index of the highest rung that meets the SLO. The
// ladder must bracket the knee: its lowest rung meets the objective and
// its top rung misses it, otherwise ok is false and the ladder, not the
// system, would set the answer.
func kneeOf(ladder []outcome) (idx int, ok bool) {
	if len(ladder) < 2 || !ladder[0].meetsSLO() || ladder[len(ladder)-1].meetsSLO() {
		return -1, false
	}
	for i := len(ladder) - 1; i >= 0; i-- {
		if ladder[i].meetsSLO() {
			return i, true
		}
	}
	return -1, false
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
