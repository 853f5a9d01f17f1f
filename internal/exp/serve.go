package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// ServeShards is the shard count every serving topology runs with: one
// kvstore per MCN DIMM, per cluster node, or per scale-up port, so the
// comparison holds the software architecture fixed and varies only the
// fabric (the paper's Discussion: one MCN server vs a rack of memcached
// nodes).
const ServeShards = 8

// DefaultServeRates is the offered-load ladder (requests/sec) of the
// latency-vs-throughput sweep. The ladder extends past the unbatched
// knee (~1.4M) so the batched configurations can show theirs.
var DefaultServeRates = []float64{100e3, 200e3, 400e3, 800e3, 1.2e6, 1.4e6, 1.6e6, 2e6, 2.4e6}

// McntServeRates extends the default ladder for "+mcnt" topologies: with
// the per-segment TCP/IP costs gone from the memory-channel hops, the
// knee sits past the TCP ladder's top rung, so the sweep needs higher
// rungs to find it. The shared prefix keeps the curves point-for-point
// comparable with the recorded TCP baselines.
var McntServeRates = append(append([]float64(nil), DefaultServeRates...), 2.8e6, 3.2e6)

// DefaultServeSLONs is the p99 service-level objective (ns) used for the
// qps-at-SLO headline. 40us sits well above every topology's unloaded
// p99 and well below the saturated tails, so the headline measures where
// each fabric's latency knee is.
const DefaultServeSLONs = 40e3 // 40us

// ServeTopos lists the serving topologies in presentation order. A
// "+batch" suffix runs the same fabric with request batching on the
// shard connections (DefaultServeBatch); a "+admit" suffix adds the
// admission-control plane (DefaultServeAdmit); a "+repl" suffix adds
// primary/backup replication across the DIMM shards (DefaultServeRepl,
// which implies admission control — the breaker is the failover signal).
// Suffixes compose in any order. A "+mcnt" suffix swaps the
// memory-channel hops from TCP to the MCN-native mcnt transport
// (internal/mcnt) — only meaningful on MCN fabrics. A "+ops" suffix mixes
// near-memory operator traffic (DefaultServeOps) into the workload.
var ServeTopos = []string{"mcn0", "mcn5", "mcn0+batch", "mcn5+batch", "mcn5+batch+admit", "mcn5+batch+repl", "mcn5+batch+mcnt", "mcn5+batch+ops", "10gbe", "scaleup"}

// DefaultServeBatch is the coalescing bound the "+batch" topologies use:
// flush at 16 requests, 8KB, or 2us after the first dequeue — whichever
// comes first. The window only runs while earlier responses are in
// flight (flush-on-idle), so a sparse stream pays nothing; 2us sits well
// under the fabric's unloaded service time yet spans several
// inter-arrival gaps near the knee, where it roughly doubles the
// requests per segment and moves the saturation knee by ~50%.
var DefaultServeBatch = serve.BatchConfig{MaxRequests: 16, MaxBytes: 8 << 10, Window: 2 * sim.Microsecond}

// DefaultServeAdmit is the admission-control configuration the "+admit"
// topologies use: the internal/admit defaults (200us outstanding-age
// timeout, 1ms..8ms jittered backoff, 2-probe recovery) with the re-route
// policy, so a tripped shard's keys fall through to the next vnode owner
// instead of fast-failing.
var DefaultServeAdmit = admit.Config{On: true, Policy: admit.Reroute}

// DefaultServeRepl is the replication configuration the "+repl"
// topologies use: the internal/replica defaults (R=2 primary/backup
// pairs, a 32-record async forward window, 1ms sync-ack timeout). A
// replicated topology always runs with admission control on — the
// breaker state is what steers reads to the backup and gates the
// recovered primary's readmission behind catch-up.
var DefaultServeRepl = replica.Config{On: true}

// ServePoint is one offered-load point of one topology's curve.
type ServePoint struct {
	OfferedQPS float64
	Summary    serve.Summary
	Errors     int64
	Unfinished int64
	Degraded   []int
	// BatchMean and BatchMax are the requests per flushed batch (0 when
	// the topology does not batch).
	BatchMean, BatchMax float64
}

// Healthy reports whether the point completed every measured request.
func (p ServePoint) Healthy() bool { return p.Errors == 0 && p.Unfinished == 0 }

// ServeTopoCurve is one topology's latency-vs-throughput curve.
type ServeTopoCurve struct {
	Topo   string
	Points []ServePoint
}

// QpsAtSLO returns the highest achieved throughput among points that meet
// the p99 objective (ns) with no errors or unfinished requests; 0 if none
// do.
func (c ServeTopoCurve) QpsAtSLO(sloNs float64) float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Healthy() && p.Summary.P99 <= sloNs && p.Summary.QPS > best {
			best = p.Summary.QPS
		}
	}
	return best
}

// Knee locates where the curve's p99 crosses the objective (ns),
// linearly interpolated in achieved qps between the bracketing points.
// Unlike QpsAtSLO it does not lose a whole ladder step when the p99
// grazes the objective at a sparse rung. The walk stops at the first
// unhealthy point; a curve that never crosses before it is credited the
// last achieved throughput, and one that starts above the objective
// gets 0.
func (c ServeTopoCurve) Knee(sloNs float64) float64 {
	knee := 0.0
	for i, p := range c.Points {
		if !p.Healthy() {
			break
		}
		if p.Summary.P99 <= sloNs {
			knee = p.Summary.QPS
			continue
		}
		if i > 0 {
			// The previous point met the objective, so the p99 rose
			// across it and the denominator is positive.
			prev := c.Points[i-1].Summary
			frac := (sloNs - prev.P99) / (p.Summary.P99 - prev.P99)
			knee = prev.QPS + frac*(p.Summary.QPS-prev.QPS)
		}
		break
	}
	return knee
}

// ServeCurveResult is the full sweep.
type ServeCurveResult struct {
	Seed   uint64
	SLONs  float64
	Curves []ServeTopoCurve
}

// Curve returns the named topology's curve, or nil.
func (r *ServeCurveResult) Curve(topo string) *ServeTopoCurve {
	for i := range r.Curves {
		if r.Curves[i].Topo == topo {
			return &r.Curves[i]
		}
	}
	return nil
}

// ServeCurve sweeps offered load over every serving topology: the
// MCN server at both optimization extremes, the 10GbE scale-out rack, and
// the single scale-up box. Same seed, same curves — every random stream is
// derived from it.
func ServeCurve(seed uint64, rates []float64) *ServeCurveResult {
	res := &ServeCurveResult{Seed: seed, SLONs: DefaultServeSLONs}
	for _, topo := range ServeTopos {
		res.Curves = append(res.Curves, sweep(seed, topo, serveRates(topo, rates)))
	}
	return res
}

// serveRates is the ladder topo sweeps: rates when given, else the
// default per topology — "+mcnt" sweeps the extended ladder (its knee
// sits past the TCP rungs) while everything else keeps the recorded
// baseline ladder point-for-point.
func serveRates(topo string, rates []float64) []float64 {
	if rates != nil {
		return rates
	}
	if _, m := parseServeTopo(topo); m.Mcnt {
		return McntServeRates
	}
	return DefaultServeRates
}

// flapRate is the offered load of the DIMM-flap experiments: well under
// every fabric's knee, so the damage is the flap's, not queueing's.
const flapRate = 200e3

// flapScenario is the standard DIMM flap on topo at flapRate.
func flapScenario(seed uint64, topo string) Scenario {
	return Scenario{Seed: seed, Topo: topo, Rate: flapRate, Flap: true}
}

// String renders the sweep the way the paper presents latency curves:
// p99 (and p50) against offered load, one block per topology, plus the
// qps-at-SLO headline.
func (r *ServeCurveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kvstore serving: latency vs offered load (seed %d, %d shards, p99 SLO %.0fus)\n",
		r.Seed, ServeShards, r.SLONs/1e3)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%s\n", c.Topo)
		fmt.Fprintf(&b, "%12s %10s %10s %10s %10s %7s\n", "offered/s", "qps", "p50us", "p99us", "p999us", "ok")
		for _, p := range c.Points {
			ok := "yes"
			if !p.Healthy() {
				ok = fmt.Sprintf("e%d/u%d", p.Errors, p.Unfinished)
			}
			fmt.Fprintf(&b, "%12.0f %10.0f %10.1f %10.1f %10.1f %7s\n",
				p.OfferedQPS, p.Summary.QPS, p.Summary.P50/1e3, p.Summary.P99/1e3, p.Summary.P999/1e3, ok)
		}
	}
	fmt.Fprintf(&b, "qps at p99<=%.0fus:", r.SLONs/1e3)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  %s=%.0f", c.Topo, c.QpsAtSLO(r.SLONs))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// ServeReplResult is the replication A/B under a DIMM flap: identical
// topology, seed, flap window and offered load on mcn5+batch with
// admission control (re-route), run with replication off and on. Without
// replication the flapped shard's keys re-route to a vnode neighbour
// that has never seen them — GETs come back as misses and SETs land on
// the wrong shard. With replication the same keys keep serving real data
// from the backup replica, sync writes stay durable, and the recovered
// primary catches up before readmission.
type ServeReplResult struct {
	Seed uint64
	Off  *Outcome
	On   *Outcome
}

// ServeRepl runs the DIMM-flap serving experiment with replication off
// and on. Every stream derives from the seed, so each variant replays
// bit-identically.
func ServeRepl(seed uint64) *ServeReplResult {
	return &ServeReplResult{
		Seed: seed,
		Off:  Run(flapScenario(seed, "mcn5+batch+admit")),
		On:   Run(flapScenario(seed, "mcn5+batch+repl")),
	}
}

// String renders the A/B with the availability headline.
func (r *ServeReplResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replication under a DIMM flap: %s offline [%v, %v), mcn5+batch+admit (seed %d)\n",
		r.Off.FlapDimm, r.Off.FlapStart, r.Off.FlapEnd, r.Seed)
	for _, v := range []struct {
		name string
		res  *Outcome
	}{{"repl=off", r.Off}, {"repl=on", r.On}} {
		fmt.Fprintf(&b, "--- %s ---\n%s", v.name, v.res.Result)
	}
	on, off := r.On.Result, r.Off.Result
	fmt.Fprintf(&b, "flap-window availability: misses off=%d on=%d | errors on=%d | failover reads=%d stale=%d\n",
		off.Misses, on.Misses, on.Errors, on.ReplCounters.FailoverReads, on.ReplCounters.StaleReads)
	fmt.Fprintf(&b, "p99: off=%.1fus on=%.1fus | sync acks=%d degraded=%d | diverged after sweep=%d\n",
		off.Summary().P99/1e3, on.Summary().P99/1e3,
		on.ReplCounters.SyncAcks, on.ReplCounters.SyncDegraded, r.On.Diverged)
	return b.String()
}

// ServeAdmitResult is the admission-control A/B/B' under a DIMM flap:
// identical topology, seed, flap window and offered load, run with
// admission off, with the re-route policy, and with the shed policy. The
// headline is the fault-window p99: unadmitted it rides the TCP
// retransmission timeout, admitted it stays bounded near the healthy
// tail because post-detection traffic never waits on the dead shard.
type ServeAdmitResult struct {
	Seed      uint64
	FlapDimm  string
	FlapStart sim.Time
	FlapEnd   sim.Time
	Off       *serve.Result
	Reroute   *serve.Result
	Shed      *serve.Result
}

// admitScenarios is the flap A/B the admission and timeline figures
// share, on the mcn5+batch fabric with the named suffix per arm ("" for
// none). The measured window is long relative to the 2ms flap so the
// p99 verdict reflects what admission can control (traffic after the
// first timeout edge) rather than the handful of requests unavoidably
// trapped before it.
func admitScenarios(seed uint64, suffixes ...string) []Scenario {
	var out []Scenario
	for _, sfx := range suffixes {
		s := flapScenario(seed, "mcn5+batch"+sfx)
		s.Measure = 15 * sim.Millisecond
		out = append(out, s)
	}
	return out
}

// ServeAdmit runs the DIMM-flap serving experiment three ways — admission
// off, re-route, shed — on the mcn5+batch fabric. Every stream derives
// from the seed, so each variant replays bit-identically.
func ServeAdmit(seed uint64) *ServeAdmitResult {
	sc := admitScenarios(seed, "", "+admit", "+admit")
	sc[2].Mutate = func(c *serve.Config) { c.Admit.Policy = admit.Shed }
	var runs []*Outcome
	for _, s := range sc {
		runs = append(runs, Run(s))
	}
	return &ServeAdmitResult{
		Seed: seed, FlapDimm: FlapDimm, FlapStart: runs[0].FlapStart, FlapEnd: runs[0].FlapEnd,
		Off: runs[0].Result, Reroute: runs[1].Result, Shed: runs[2].Result,
	}
}

// P99Off, P99Reroute and P99Shed are the fault-window p99s (ns).
func (r *ServeAdmitResult) P99Off() float64     { return r.Off.Total.Quantile(0.99) }
func (r *ServeAdmitResult) P99Reroute() float64 { return r.Reroute.Total.Quantile(0.99) }
func (r *ServeAdmitResult) P99Shed() float64    { return r.Shed.Total.Quantile(0.99) }

// String renders the A/B/B' with the fault-window tail headline.
func (r *ServeAdmitResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admission control under a DIMM flap: %s offline [%v, %v), mcn5+batch (seed %d)\n",
		r.FlapDimm, r.FlapStart, r.FlapEnd, r.Seed)
	for _, v := range []struct {
		name string
		res  *serve.Result
	}{{"admit=off", r.Off}, {"admit=reroute", r.Reroute}, {"admit=shed", r.Shed}} {
		fmt.Fprintf(&b, "--- %s ---\n%s", v.name, v.res)
	}
	fmt.Fprintf(&b, "fault-window p99: off=%.1fus reroute=%.1fus shed=%.1fus | rerouted=%d shed=%d\n",
		r.P99Off()/1e3, r.P99Reroute()/1e3, r.P99Shed()/1e3, r.Reroute.Rerouted, r.Shed.Shed)
	return b.String()
}

// ServeMcntResult is the transport A/B on the batched mcn5 fabric:
// identical topology, seed and workload, shard connections on TCP vs on
// the mcnt credit-based transport (internal/mcnt). The curves show where
// each knee sits; the per-phase attribution (tracing 1-in-1 at the
// standard attribution load) shows *why* — the phases TCP spent in
// segmentation, ACK clocking and delayed-ACK wakeups (HostStack on the
// request path, ReturnPath on the response path) collapse when the
// transport is native to the memory channel.
type ServeMcntResult struct {
	Seed  uint64
	SLONs float64
	TCP   ServeTopoCurve
	Mcnt  ServeTopoCurve
	// AttribTCP/AttribMcnt are the per-phase latency attributions at
	// ServeAttribRate (obs.NumPhases rows plus Total, in phase order).
	AttribTCP  []obs.Attrib
	AttribMcnt []obs.Attrib
	AttribRate float64
	Fabric     string // mcnt traffic summary from the attribution run
}

// ServeMcnt sweeps mcn5+batch with the shard connections on TCP and on
// mcnt — the transport knee-mover figure — then traces both at the
// attribution load for the phase-by-phase explanation. nil rates uses
// the default ladders (the mcnt curve sweeps the extended one so its
// knee is on the chart). Every stream derives from the seed, so both
// variants replay bit-identically.
func ServeMcnt(seed uint64, rates []float64) *ServeMcntResult {
	res := &ServeMcntResult{Seed: seed, SLONs: DefaultServeSLONs, AttribRate: ServeAttribRate}
	res.TCP = sweep(seed, "mcn5+batch", serveRates("mcn5+batch", rates))
	res.Mcnt = sweep(seed, "mcn5+batch+mcnt", serveRates("mcn5+batch+mcnt", rates))
	tTCP := Run(Scenario{Seed: seed, Topo: "mcn5+batch", Rate: ServeAttribRate, Sample: 1})
	tMcnt := Run(Scenario{Seed: seed, Topo: "mcn5+batch+mcnt", Rate: ServeAttribRate, Sample: 1})
	res.AttribTCP = tTCP.Tracer.Attribution()
	res.AttribMcnt = tMcnt.Tracer.Attribution()
	res.Fabric = tMcnt.McntFabric
	return res
}

// String renders the A/B: both curves, the qps-at-SLO headline, and the
// per-phase before/after table with the HostStack+ReturnPath delta.
func (r *ServeMcntResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mcnt transport on memory-channel hops: mcn5+batch, TCP vs mcnt (seed %d, p99 SLO %.0fus)\n",
		r.Seed, r.SLONs/1e3)
	writeABCurves(&b, r.TCP, r.Mcnt)
	off, on := r.TCP.QpsAtSLO(r.SLONs), r.Mcnt.QpsAtSLO(r.SLONs)
	fmt.Fprintf(&b, "qps at p99<=%.0fus: tcp=%.0f mcnt=%.0f (%+.0f%%)\n",
		r.SLONs/1e3, off, on, 100*(on-off)/off)
	fmt.Fprintf(&b, "per-phase mean us @ %.0f req/s (tcp -> mcnt):\n", r.AttribRate)
	var dTCP, dMcnt float64
	for pi := 0; pi <= int(obs.NumPhases); pi++ {
		at, am := r.AttribTCP[pi], r.AttribMcnt[pi]
		fmt.Fprintf(&b, "  %-12s %8.2f -> %8.2f\n", at.Phase, at.MeanNs/1e3, am.MeanNs/1e3)
		if at.Phase == "HostStack" || at.Phase == "ReturnPath" {
			dTCP += at.MeanNs
			dMcnt += am.MeanNs
		}
	}
	fmt.Fprintf(&b, "HostStack+ReturnPath: %.2fus -> %.2fus (%+.0f%%)\n",
		dTCP/1e3, dMcnt/1e3, 100*(dMcnt-dTCP)/dTCP)
	fmt.Fprintf(&b, "%s\n", r.Fabric)
	return b.String()
}

// ServeBatchResult is the batching A/B on the mcn5 fabric: identical
// topology, seed and rate ladder, batching off vs on.
type ServeBatchResult struct {
	Seed      uint64
	SLONs     float64
	Unbatched ServeTopoCurve
	Batched   ServeTopoCurve
	// LowLoadRate is the lowest swept rate; the p99 pair there shows the
	// flush-on-idle guarantee (batching must not tax sparse traffic).
	LowLoadRate                     float64
	LowLoadP99Off, LowLoadP99On     float64
	BatchMeanAtKnee, BatchMaxAtKnee float64
}

// ServeBatch sweeps the mcn5 topology with request batching off and on:
// the batching knee-mover figure. Same seed, same arrival streams — the
// only difference between the two curves is the coalescing window.
func ServeBatch(seed uint64, rates []float64) *ServeBatchResult {
	rates = serveRates("mcn5", rates)
	res := &ServeBatchResult{Seed: seed, SLONs: DefaultServeSLONs, LowLoadRate: rates[0]}
	res.Unbatched = sweep(seed, "mcn5", rates)
	res.Batched = sweep(seed, "mcn5+batch", rates)
	res.LowLoadP99Off = res.Unbatched.Points[0].Summary.P99
	res.LowLoadP99On = res.Batched.Points[0].Summary.P99
	for _, p := range res.Batched.Points {
		if p.BatchMax > 0 && p.Healthy() && p.Summary.P99 <= DefaultServeSLONs {
			res.BatchMeanAtKnee, res.BatchMaxAtKnee = p.BatchMean, p.BatchMax
		}
	}
	return res
}

// String renders the A/B with the knee headline.
func (r *ServeBatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request batching on shard connections: mcn5, batching off vs on (seed %d, p99 SLO %.0fus)\n",
		r.Seed, r.SLONs/1e3)
	writeABCurves(&b, r.Unbatched, r.Batched)
	off, on := r.Unbatched.QpsAtSLO(r.SLONs), r.Batched.QpsAtSLO(r.SLONs)
	fmt.Fprintf(&b, "qps at p99<=%.0fus: off=%.0f on=%.0f (%+.0f%%)\n",
		r.SLONs/1e3, off, on, 100*(on-off)/off)
	fmt.Fprintf(&b, "low-load p99 @ %.0f req/s: off=%.1fus on=%.1fus | batch at knee: mean=%.1f max=%.0f reqs\n",
		r.LowLoadRate, r.LowLoadP99Off/1e3, r.LowLoadP99On/1e3, r.BatchMeanAtKnee, r.BatchMaxAtKnee)
	return b.String()
}

// writeABCurves renders the two curves of an A/B figure: achieved qps,
// p50 and p99 against offered load, one block per topology.
func writeABCurves(b *strings.Builder, curves ...ServeTopoCurve) {
	for _, c := range curves {
		fmt.Fprintf(b, "%s\n", c.Topo)
		fmt.Fprintf(b, "%12s %10s %10s %10s %7s\n", "offered/s", "qps", "p50us", "p99us", "ok")
		for _, p := range c.Points {
			ok := "yes"
			if !p.Healthy() {
				ok = fmt.Sprintf("e%d/u%d", p.Errors, p.Unfinished)
			}
			fmt.Fprintf(b, "%12.0f %10.0f %10.1f %10.1f %7s\n",
				p.OfferedQPS, p.Summary.QPS, p.Summary.P50/1e3, p.Summary.P99/1e3, ok)
		}
	}
}
