package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/obs"
)

// ServeAttribTopos is the configuration ladder of the attribution table:
// the unoptimized MCN server, the fully optimized one, the optimized
// one with batching and with batching+admission, and finally the batched
// fabric with the mcnt transport replacing TCP on the memory-channel
// hops — the software-stack walk the serving PRs took, now explained
// phase by phase.
var ServeAttribTopos = []string{"mcn0", "mcn5", "mcn5+batch", "mcn5+batch+admit", "mcn5+batch+mcnt"}

// ServeAttribRate is the offered load of the attribution runs: 200k req/s
// sits well under every configuration's knee, so the table attributes the
// intrinsic path cost rather than queueing collapse.
const ServeAttribRate = 200e3

// ServeAttribResult is the paper-style latency-breakdown table: for each
// configuration, where the mean/tail microseconds of a request go.
type ServeAttribResult struct {
	Seed  uint64
	Rate  float64
	Topos []string
	// Rows[i] is topo i's per-phase attribution (obs.NumPhases rows plus
	// the Total row, in phase order).
	Rows [][]obs.Attrib
}

// ServeAttrib runs the latency-attribution experiment: every
// configuration traced at sampling 1 (every request spanned) at the same
// offered load, reduced to a per-phase latency table — the reproduction
// of the paper's layer-by-layer latency argument (Figs. 9-11) for the
// serving stack.
func ServeAttrib(seed uint64) *ServeAttribResult {
	out := &ServeAttribResult{Seed: seed, Rate: ServeAttribRate, Topos: ServeAttribTopos}
	for _, topo := range ServeAttribTopos {
		r := Run(Scenario{Seed: seed, Topo: topo, Rate: ServeAttribRate, Sample: 1})
		out.Rows = append(out.Rows, r.Tracer.Attribution())
	}
	return out
}

// String renders the table: one column per configuration, one row per
// phase (mean ns, with the p99 alongside), phases summing to Total.
func (r *ServeAttribResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request latency attribution, mean us per phase (seed %d, %.0f req/s offered)\n", r.Seed, r.Rate)
	fmt.Fprintf(&b, "%-12s", "phase")
	for _, topo := range r.Topos {
		fmt.Fprintf(&b, " %16s", topo)
	}
	fmt.Fprintln(&b)
	for pi := 0; pi <= int(obs.NumPhases); pi++ {
		fmt.Fprintf(&b, "%-12s", r.Rows[0][pi].Phase)
		for ti := range r.Topos {
			fmt.Fprintf(&b, " %16.2f", r.Rows[ti][pi].MeanNs/1e3)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "p99 total")
	for ti := range r.Topos {
		fmt.Fprintf(&b, " %16.2f", r.Rows[ti][int(obs.NumPhases)].P99Ns/1e3)
	}
	fmt.Fprintln(&b)
	return b.String()
}
