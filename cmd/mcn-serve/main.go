// Command mcn-serve runs the kvstore serving benchmark: Zipfian load
// generators drive a sharded key/value tier over one of the serving
// topologies and report warmup-trimmed tail latencies.
//
// Usage:
//
//	mcn-serve -topo mcn5 -rate 400000            # one run, human-readable
//	mcn-serve -topo 10gbe -rate 400000 -json     # one run, JSON
//	mcn-serve -trace trace.json -metrics m.json  # one traced run + artifacts
//	mcn-serve -timeline tl.json                  # windowed timeline + incidents
//	mcn-serve -curve                             # full latency-vs-load sweep
//	mcn-serve -bench -out BENCH_serve.json       # qps-at-SLO per topology
//	mcn-serve -wallbench -out BENCH_wallclock.json  # simulator events/sec
//	mcn-serve -check BENCH_serve.json            # re-run an artifact, fail on drift
//
// -trace writes a Perfetto/Chrome trace-event JSON (load it at
// ui.perfetto.dev) of the sampled request spans plus metrics/timeline
// counter tracks; -metrics writes the unified metrics-registry
// snapshot; -timeline writes the windowed time-series (per-1ms window
// qps, tails, queue depths, subsystem series) with the SLO burn-rate
// alerts and attributed incidents. Observation never perturbs the
// simulation, so an observed run's telemetry matches the plain run's.
//
// Every run is seeded; the same -seed replays bit-identically.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/mcn-arch/mcn"
)

// runJSON is the single-run JSON shape.
type runJSON struct {
	Seed       uint64         `json:"seed"`
	Topo       string         `json:"topo"`
	OfferedQPS float64        `json:"offered_qps,omitempty"`
	Workers    int            `json:"closed_workers,omitempty"`
	QPS        float64        `json:"qps"`
	N          int64          `json:"n"`
	Errors     int64          `json:"errors"`
	Unfinished int64          `json:"unfinished"`
	P50Ns      float64        `json:"p50_ns"`
	P95Ns      float64        `json:"p95_ns"`
	P99Ns      float64        `json:"p99_ns"`
	P999Ns     float64        `json:"p999_ns"`
	MaxNs      float64        `json:"max_ns"`
	Shed       int64          `json:"shed,omitempty"`
	Rerouted   int64          `json:"rerouted,omitempty"`
	Misses     int64          `json:"misses,omitempty"`
	FailedOver int64          `json:"failed_over,omitempty"`
	StaleReads int64          `json:"stale_reads,omitempty"`
	Degraded   []int          `json:"degraded,omitempty"`
	Ops        *runOpsJSON    `json:"ops,omitempty"`
	Shards     []runShardJSON `json:"shards"`
}

// runOpsJSON is the near-memory operator section of a single run (only
// present when the workload mixed operator traffic in).
type runOpsJSON struct {
	MultiGet opTallyJSON `json:"multiget"`
	Scan     opTallyJSON `json:"scan"`
	Filter   opTallyJSON `json:"filter"`
	RMW      opTallyJSON `json:"rmw"`
}

type opTallyJSON struct {
	Issued    int64 `json:"issued"`
	Offloaded int64 `json:"offloaded"`
	Host      int64 `json:"host"`
	Errors    int64 `json:"errors,omitempty"`
	WireReqs  int64 `json:"wire_reqs"`
	ReqBytes  int64 `json:"req_bytes"`
	RespBytes int64 `json:"resp_bytes"`
}

func opTally(t mcn.OpsCounters) runOpsJSON {
	mk := func(issued, offloaded, host, errs, wire, reqB, respB int64) opTallyJSON {
		return opTallyJSON{Issued: issued, Offloaded: offloaded, Host: host,
			Errors: errs, WireReqs: wire, ReqBytes: reqB, RespBytes: respB}
	}
	return runOpsJSON{
		MultiGet: mk(t.MultiGet.Issued, t.MultiGet.Offloaded, t.MultiGet.Host, t.MultiGet.Errors, t.MultiGet.WireReqs, t.MultiGet.ReqBytes, t.MultiGet.RespBytes),
		Scan:     mk(t.Scan.Issued, t.Scan.Offloaded, t.Scan.Host, t.Scan.Errors, t.Scan.WireReqs, t.Scan.ReqBytes, t.Scan.RespBytes),
		Filter:   mk(t.Filter.Issued, t.Filter.Offloaded, t.Filter.Host, t.Filter.Errors, t.Filter.WireReqs, t.Filter.ReqBytes, t.Filter.RespBytes),
		RMW:      mk(t.RMW.Issued, t.RMW.Offloaded, t.RMW.Host, t.RMW.Errors, t.RMW.WireReqs, t.RMW.ReqBytes, t.RMW.RespBytes),
	}
}

type runShardJSON struct {
	Shard      int     `json:"shard"`
	Name       string  `json:"name"`
	N          int64   `json:"n"`
	Errors     int64   `json:"errors"`
	Unfinished int64   `json:"unfinished"`
	Shed       int64   `json:"shed,omitempty"`
	Rerouted   int64   `json:"rerouted,omitempty"`
	Misses     int64   `json:"misses,omitempty"`
	FailedOver int64   `json:"failed_over,omitempty"`
	P99Ns      float64 `json:"p99_ns"`
	MaxNs      int64   `json:"max_ns"`
}

// benchJSON is the BENCH_serve.json shape: the qps-at-SLO headline per
// topology, the full curves behind it, the DIMM-flap admission and
// replication A/Bs, and the near-memory operator headline.
type benchJSON struct {
	Seed     uint64             `json:"seed"`
	SLONs    float64            `json:"slo_p99_ns"`
	QpsAtSLO map[string]float64 `json:"qps_at_slo"`
	Curves   []benchCurveJSON   `json:"curves"`
	Faults   *benchFaultsJSON   `json:"faults"`
	// Ops is omitted by artifacts recorded before the operator subsystem
	// existed, so old files keep parsing.
	Ops *benchOpsJSON `json:"ops,omitempty"`
}

// benchOpsJSON records the serve-ops smoke sweep: per selectivity, the
// filter-family channel bytes of the forced host and on-DIMM paths, the
// savings ratio, and what the calibrated auto mode picked.
type benchOpsJSON struct {
	Topo             string            `json:"topo"`
	Rate             float64           `json:"rate"`
	ChannelNsPerByte float64           `json:"channel_ns_per_byte"`
	Rows             []benchOpsRowJSON `json:"rows"`
}

type benchOpsRowJSON struct {
	Selectivity     float64 `json:"selectivity"`
	FilterIssued    int64   `json:"filter_issued"`
	HostFilterBytes int64   `json:"host_filter_bytes"`
	DimmFilterBytes int64   `json:"dimm_filter_bytes"`
	HostOverDimm    float64 `json:"host_over_dimm"`
	AutoOffloaded   int64   `json:"auto_offloaded"`
	AutoHost        int64   `json:"auto_host"`
	HostFilterP99Ns float64 `json:"host_filter_p99_ns"`
	DimmFilterP99Ns float64 `json:"dimm_filter_p99_ns"`
}

func opsBenchJSON(r *mcn.ServeOpsResult) *benchOpsJSON {
	out := &benchOpsJSON{Topo: r.Topo, Rate: r.Rate, ChannelNsPerByte: r.ChannelNsPerByte}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, benchOpsRowJSON{
			Selectivity:     row.Selectivity,
			FilterIssued:    row.Host.FilterIssued,
			HostFilterBytes: row.Host.FilterBytes,
			DimmFilterBytes: row.Dimm.FilterBytes,
			HostOverDimm:    row.HostOverDimmBytes(),
			AutoOffloaded:   row.Auto.FilterOffloaded,
			AutoHost:        row.Auto.FilterHost,
			HostFilterP99Ns: row.Host.FilterP99,
			DimmFilterP99Ns: row.Dimm.FilterP99,
		})
	}
	return out
}

// benchFaultsJSON is the fault-window headline: p99 (ns) over a measured
// window containing a 2ms DIMM flap, with admission off, re-routing, and
// shedding, plus the replication off/on A/B on the same flap (misses,
// failover reads, sync-write outcomes, post-run replica convergence).
type benchFaultsJSON struct {
	P99OffNs      float64 `json:"p99_off_ns"`
	P99RerouteNs  float64 `json:"p99_reroute_ns"`
	P99ShedNs     float64 `json:"p99_shed_ns"`
	Rerouted      int64   `json:"rerouted"`
	Shed          int64   `json:"shed"`
	P99ReplOffNs  float64 `json:"p99_repl_off_ns"`
	P99ReplOnNs   float64 `json:"p99_repl_on_ns"`
	MissesReplOff int64   `json:"misses_repl_off"`
	MissesReplOn  int64   `json:"misses_repl_on"`
	ErrorsReplOn  int64   `json:"errors_repl_on"`
	FailoverReads int64   `json:"failover_reads"`
	StaleReads    int64   `json:"stale_reads"`
	SyncAcks      int64   `json:"sync_acks"`
	SyncDegraded  int64   `json:"sync_degraded"`
	Diverged      int     `json:"diverged"`
}

// faultsJSON builds the faults section from the admission and
// replication A/Bs.
func faultsJSON(fr *mcn.ServeAdmitResult, rr *mcn.ServeReplResult) *benchFaultsJSON {
	rc := rr.On.Result.ReplCounters
	return &benchFaultsJSON{
		P99OffNs: fr.P99Off(), P99RerouteNs: fr.P99Reroute(), P99ShedNs: fr.P99Shed(),
		Rerouted: fr.Reroute.Rerouted, Shed: fr.Shed.Shed,
		P99ReplOffNs: rr.Off.Result.Summary().P99, P99ReplOnNs: rr.On.Result.Summary().P99,
		MissesReplOff: rr.Off.Result.Misses, MissesReplOn: rr.On.Result.Misses,
		ErrorsReplOn:  rr.On.Result.Errors,
		FailoverReads: rc.FailoverReads, StaleReads: rc.StaleReads,
		SyncAcks: rc.SyncAcks, SyncDegraded: rc.SyncDegraded,
		Diverged: rr.On.Diverged,
	}
}

type benchCurveJSON struct {
	Topo   string           `json:"topo"`
	Points []benchPointJSON `json:"points"`
}

type benchPointJSON struct {
	OfferedQPS float64 `json:"offered_qps"`
	QPS        float64 `json:"qps"`
	P50Ns      float64 `json:"p50_ns"`
	P99Ns      float64 `json:"p99_ns"`
	P999Ns     float64 `json:"p999_ns"`
	Errors     int64   `json:"errors"`
	Unfinished int64   `json:"unfinished"`
}

func main() {
	seed := flag.Uint64("seed", 42, "random seed; the same seed replays bit-identically")
	topo := flag.String("topo", "mcn5", "serving topology: mcn0, mcn5, 10gbe, scaleup, or any with +batch (request batching), +admit (admission control), +repl (primary/backup replication, implies +admit), +mcnt (MCN-native transport on memory-channel hops) and/or +ops (near-memory operator mix) suffixes")
	rate := flag.Float64("rate", 400e3, "open-loop offered load, requests/sec")
	workers := flag.Int("closed", 0, "closed-loop worker count (overrides -rate)")
	curve := flag.Bool("curve", false, "sweep the full latency-vs-load curve over every topology")
	bench := flag.Bool("bench", false, "run the sweep and write the qps-at-SLO benchmark JSON")
	rates := flag.String("rates", "", "comma-separated offered-load ladder for -curve/-bench, or the subset of the artifact's curve points -check re-runs (default: the built-in ladders)")
	slo := flag.Float64("slo", mcn.DefaultServeSLONs, "p99 SLO in nanoseconds for qps-at-SLO")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	out := flag.String("out", "", "write output to this file instead of stdout")
	traceOut := flag.String("trace", "", "single run: write a Perfetto/Chrome trace-event JSON of sampled request spans to this file")
	sample := flag.Int("sample", 1, "1-in-N span sampling rate for -trace/-metrics (1 traces every request)")
	metricsOut := flag.String("metrics", "", "single run: write the metrics-registry snapshot JSON to this file")
	timelineOut := flag.String("timeline", "", "single run: write the windowed timeline JSON (per-1ms qps/tails/queue/subsystem series, burn-rate alerts, attributed incidents) to this file")
	check := flag.String("check", "", "re-run every section of this artifact (BENCH_serve.json curves, faults and ops; BENCH_wallclock.json points) and exit non-zero on drift")
	wallBench := flag.Bool("wallbench", false, "measure raw simulator throughput (events/sec) over the canonical topologies and write the BENCH_wallclock.json artifact")
	wallReps := flag.Int("wallreps", 3, "with -wallbench: median-of-N wall-clock repetitions per point")
	flag.Parse()

	var ladder []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -rates entry %q: %v\n", f, err)
				os.Exit(2)
			}
			ladder = append(ladder, v)
		}
	}

	var text string
	var value any
	switch {
	case *check != "":
		runCheck(*check, *seed, ladder)
		return
	case *wallBench:
		r := mcn.WallBench(*seed, *wallReps)
		value, text = r, r.String()
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *bench:
		value, text = runBench(*seed, ladder, *slo)
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *curve:
		r := mcn.ServeCurve(*seed, ladder)
		r.SLONs = *slo
		value, text = r, r.String()
	default:
		s := mcn.ServeScenario{Seed: *seed, Topo: *topo, Rate: *rate, Closed: *workers}
		observed := *traceOut != "" || *metricsOut != "" || *timelineOut != ""
		if observed {
			s.Sample, s.Metrics, s.Timeline = max(*sample, 1), true, true
		}
		o := mcn.RunScenario(s)
		if observed {
			ct := mcn.CombinedTrace{Tracer: o.Tracer, Snapshot: o.Snapshot, Timeline: o.Timeline}
			writeArtifact(*traceOut, ct.Write)
			writeArtifact(*metricsOut, o.Snapshot.WriteJSON)
			writeArtifact(*timelineOut, o.Timeline.WriteJSON)
		}
		value, text = runReport(*topo, o.Result), o.Result.String()
	}

	var buf []byte
	if *jsonOut {
		var err error
		buf, err = json.MarshalIndent(value, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
	} else {
		buf = []byte(text)
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.Write(buf)
}

// runReport is the single-run JSON of res on topo.
func runReport(topo string, res *mcn.ServeResult) runJSON {
	j := runJSON{
		Seed: res.Seed, Topo: topo, OfferedQPS: res.OfferedQPS, Workers: res.ClosedWorkers,
		QPS: res.QPS, N: res.N, Errors: res.Errors, Unfinished: res.Unfinished,
		P50Ns: res.Total.Quantile(0.50), P95Ns: res.Total.Quantile(0.95),
		P99Ns: res.Total.Quantile(0.99), P999Ns: res.Total.Quantile(0.999),
		MaxNs: float64(res.Total.Max()), Shed: res.Shed, Rerouted: res.Rerouted,
		Misses: res.Misses, FailedOver: res.FailedOver,
		StaleReads: res.ReplCounters.StaleReads,
		Degraded:   res.Degraded(),
	}
	if res.OpsOn {
		ops := opTally(res.Ops)
		j.Ops = &ops
	}
	for _, ss := range res.PerShard {
		j.Shards = append(j.Shards, runShardJSON{
			Shard: ss.Shard, Name: ss.Name, N: ss.N, Errors: ss.Errors,
			Unfinished: ss.Unfinished, Shed: ss.Shed, Rerouted: ss.Rerouted,
			Misses: ss.Misses, FailedOver: ss.FailedOver,
			P99Ns: ss.Lat.Quantile(0.99), MaxNs: ss.Lat.Max(),
		})
	}
	return j
}

// runBench runs the curve sweep, the DIMM-flap admission and replication
// A/Bs and the operator smoke sweep: the BENCH_serve.json body and its
// text rendition.
func runBench(seed uint64, ladder []float64, slo float64) (*benchJSON, string) {
	r := mcn.ServeCurve(seed, ladder)
	r.SLONs = slo
	b := &benchJSON{Seed: r.Seed, SLONs: r.SLONs, QpsAtSLO: map[string]float64{}}
	for _, c := range r.Curves {
		b.QpsAtSLO[c.Topo] = c.QpsAtSLO(r.SLONs)
		b.Curves = append(b.Curves, curveJSON(c))
	}
	fr, rr := mcn.ServeAdmit(seed), mcn.ServeRepl(seed)
	b.Faults = faultsJSON(fr, rr)
	or := mcn.ServeOpsSmoke(seed)
	b.Ops = opsBenchJSON(or)
	return b, r.String() + "\n" + fr.String() + "\n" + rr.String() + "\n" + or.String()
}

func curveJSON(c mcn.ServeTopoCurve) benchCurveJSON {
	bc := benchCurveJSON{Topo: c.Topo}
	for _, p := range c.Points {
		bc.Points = append(bc.Points, benchPointJSON{
			OfferedQPS: p.OfferedQPS, QPS: p.Summary.QPS,
			P50Ns: p.Summary.P50, P99Ns: p.Summary.P99, P999Ns: p.Summary.P999,
			Errors: p.Errors, Unfinished: p.Unfinished,
		})
	}
	return bc
}

// writeArtifact streams one trace/metrics artifact to path (no-op when
// path is empty).
func writeArtifact(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// artifact decodes either committed artifact: BENCH_serve.json (curves,
// faults, ops) or BENCH_wallclock.json (calibration and points). Their
// keys are disjoint but for the seed, so one struct holds both, and a
// file may carry any subset of the sections.
type artifact struct {
	benchJSON
	CalibSpinsPerSec float64              `json:"calib_spins_per_sec"`
	Points           []mcn.WallBenchPoint `json:"points"`
}

// runCheck is -check: it re-runs every section of the artifact at path
// and exits non-zero on any drift.
func runCheck(path string, seed uint64, ladder []float64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-check: %v\n", err)
		os.Exit(1)
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		fmt.Fprintf(os.Stderr, "-check: bad artifact %s: %v\n", path, err)
		os.Exit(1)
	}
	fails, notes := checkArtifact(&a, seed, ladder)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "-check: %s\n", n)
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "-check: DRIFT %s\n", f)
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "-check: %d drifts from %s\n", len(fails), path)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "-check: %s OK\n", path)
}

// checkArtifact re-runs every section a holds at seed and returns one
// line per drift, each led by its section's name, plus notes on the
// guards that passed. A non-nil ladder restricts the curve section to
// those offered loads; the sweep itself is deterministic, so curve,
// faults and ops values must match the artifact (counts exactly, other
// numbers to a float-formatting allowance). The wall section compares
// kernel counters exactly and the spin-normalized event rate within
// mcn.WallTolerance, re-measuring a miss twice before it counts.
func checkArtifact(a *artifact, seed uint64, ladder []float64) (fails, notes []string) {
	fail := func(section, format string, args ...any) {
		fails = append(fails, section+": "+fmt.Sprintf(format, args...))
	}
	if a.Seed != seed {
		fail("seed", "artifact seed %d, run seed %d — not comparable", a.Seed, seed)
		return fails, nil
	}
	if len(a.Curves) == 0 && a.Faults == nil && a.Ops == nil && len(a.Points) == 0 {
		fail("artifact", "no curves, faults, ops or points section")
	}

	if len(a.Curves) > 0 {
		r := mcn.ServeCurve(seed, ladder)
		want := map[string]map[float64]benchPointJSON{}
		for _, c := range a.Curves {
			want[c.Topo] = map[float64]benchPointJSON{}
			for _, p := range c.Points {
				want[c.Topo][p.OfferedQPS] = p
			}
		}
		checked := 0
		for _, c := range r.Curves {
			for _, p := range curveJSON(c).Points {
				w, ok := want[c.Topo][p.OfferedQPS]
				if !ok {
					continue
				}
				checked++
				for _, d := range diffJSON(p, w) {
					fail("curves", "%s @ %.0f req/s: %s", c.Topo, p.OfferedQPS, d)
				}
			}
		}
		if checked == 0 {
			fail("curves", "no (topo, rate) point of the sweep is in the artifact")
		}
		notes = append(notes, fmt.Sprintf("curves: %d points compared", checked))
		slo := a.SLONs
		if slo == 0 {
			slo = mcn.DefaultServeSLONs
		}
		// Replication overhead: the replicated knee must sit within 5% of
		// the batched one's — the async forward path may not tax the
		// primary's serving capacity.
		if br, bb := r.Curve("mcn5+batch+repl"), r.Curve("mcn5+batch"); br != nil && bb != nil {
			kr, kb := br.Knee(slo), bb.Knee(slo)
			if kb > 0 && math.Abs(kr-kb) > 0.05*kb {
				fail("curves", "replicated knee %.0f strays >5%% from batched knee %.0f", kr, kb)
			} else {
				notes = append(notes, fmt.Sprintf("curves: replicated knee %.0f within 5%% of batched knee %.0f", kr, kb))
			}
		}
		// mcnt transport: the credit-based transport must move the batched
		// knee at least 15% past the TCP curve's. A smaller gap means the
		// per-segment stack cost crept back into the mcnt path. Only
		// meaningful when the TCP curve reaches its knee within the ladder;
		// on a short smoke ladder both curves top out at the same rung.
		if bm, bb := r.Curve("mcn5+batch+mcnt"), r.Curve("mcn5+batch"); bm != nil && bb != nil {
			crossed := false
			for _, p := range bb.Points {
				crossed = crossed || !p.Healthy() || p.Summary.P99 > slo
			}
			km, kb := bm.Knee(slo), bb.Knee(slo)
			switch {
			case !crossed:
				notes = append(notes, "curves: ladder too short to reach the batched TCP knee; mcnt knee guard skipped")
			case kb > 0 && km < 1.15*kb:
				fail("curves", "mcnt knee %.0f not >15%% past batched TCP knee %.0f", km, kb)
			default:
				notes = append(notes, fmt.Sprintf("curves: mcnt knee %.0f clears batched TCP knee %.0f by %.0f%%", km, kb, 100*(km-kb)/kb))
			}
		}
	}

	if a.Faults != nil {
		for _, d := range diffJSON(faultsJSON(mcn.ServeAdmit(seed), mcn.ServeRepl(seed)), a.Faults) {
			fail("faults", "%s", d)
		}
		notes = append(notes, "faults: admission and replication flap A/Bs re-run")
	}

	if a.Ops != nil {
		r := mcn.ServeOpsSmoke(seed)
		for _, c := range r.Check() {
			fail("ops", "claim failed: %s", c)
		}
		for _, d := range diffJSON(opsBenchJSON(r), a.Ops) {
			fail("ops", "%s", d)
		}
		notes = append(notes, fmt.Sprintf("ops: %d-selectivity sweep and its claims re-run", len(r.Rows)))
	}

	if len(a.Points) > 0 {
		stored := mcn.WallBenchResult{Seed: a.Seed, CalibSpinsPerSec: a.CalibSpinsPerSec, Points: a.Points}
		for _, d := range mcn.WallBenchCheck(&stored, mcn.WallTolerance) {
			fail("wall", "%s", d)
		}
		notes = append(notes, fmt.Sprintf("wall: mid-ladder points re-run (counters exact, events/sec within %.0f%%)", mcn.WallTolerance*100))
	}
	return fails, notes
}

// diffJSON compares the JSON renderings of got and want scalar by scalar
// and lists, sorted by path, every scalar of want that got lacks or
// disagrees on. Integers compare exactly, other numbers within 1e-9
// relative (a float-formatting allowance: the runs are deterministic).
// Scalars only got has are new fields and pass.
func diffJSON(got, want any) []string {
	g, w := flatJSON(got), flatJSON(want)
	var out []string
	for path, wv := range w {
		gv, ok := g[path]
		if !ok {
			out = append(out, fmt.Sprintf("%s missing, artifact has %v", path, wv))
		} else if !sameScalar(gv, wv) {
			out = append(out, fmt.Sprintf("%s = %v, artifact has %v", path, gv, wv))
		}
	}
	sort.Strings(out)
	return out
}

// flatJSON renders v as JSON and flattens it to path -> scalar, with
// paths like "rows[1].auto_host".
func flatJSON(v any) map[string]any {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value passed here is a plain data struct
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		panic(err)
	}
	out := map[string]any{}
	var walk func(path string, x any)
	walk = func(path string, x any) {
		switch t := x.(type) {
		case map[string]any:
			for k, v := range t {
				if path != "" {
					k = path + "." + k
				}
				walk(k, v)
			}
		case []any:
			for i, v := range t {
				walk(fmt.Sprintf("%s[%d]", path, i), v)
			}
		default:
			out[path] = t
		}
	}
	walk("", tree)
	return out
}

func sameScalar(a, b any) bool {
	an, aok := a.(json.Number)
	bn, bok := b.(json.Number)
	if !aok || !bok {
		return a == b
	}
	if _, err := an.Int64(); err == nil {
		if _, err := bn.Int64(); err == nil {
			return an == bn
		}
	}
	af, _ := an.Float64()
	bf, _ := bn.Float64()
	return math.Abs(af-bf) <= 1e-9*math.Max(math.Abs(af), math.Abs(bf))
}
