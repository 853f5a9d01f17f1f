// Command perfbench is the repository's benchmark: simulator host time per
// simulated request and the simulated serving knee (qps at the 40µs p99
// SLO), on three open-loop serving workloads, with per-layer counts and a
// CPU-profiled traced run. See README.md for the workloads, the metrics
// and the recorded baseline.
//
//	perfbench --workload get-mcnt --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. attempted counts the rung
// simulations the run made and failed those whose output checks failed.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The process exits 1 when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/mcn-arch/mcn/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "get-mcnt", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 40, "host seconds to spend measuring")
	trace := fs.Int("trace", 0, "1 runs the traced hi rung and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	budget := time.Duration(*seconds) * time.Second

	var rep *report
	if *trace == 1 {
		rep = traced(w, *seed, budget)
	} else {
		rep = endToEnd(w, *seed, budget)
	}
	rep.print()
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// defaultSeed is the seed the recorded baseline was measured with.
const defaultSeed = 1

// report collects one invocation's metrics and failed checks.
type report struct {
	names             []string
	metrics           map[string]metric
	problems          []string
	attempted, failed int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name, unit string, v float64) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	fmt.Println(string(line))
}

// checkRung applies the per-rung output checks and reports whether the
// rung passed them all.
func checkRung(rep *report, w *workload, r *rung) bool {
	o, bad := r.out, len(rep.problems)
	if o.attempted != o.issued+o.shed {
		rep.fail("%s@%.0f: attempted %d != issued %d + shed %d (completed+errors exceed issued on a shard)",
			w.name, r.rate, o.attempted, o.issued, o.shed)
	}
	if !w.flap && o.misses != 0 {
		rep.fail("%s@%.0f: %d GET misses on a preloaded, fault-free keyspace", w.name, r.rate, o.misses)
	}
	if len(r.mcntDrift) != 0 {
		rep.fail("%s@%.0f: mcnt accounting drift after quiesce: %v", w.name, r.rate, r.mcntDrift)
	}
	if r.diverged != 0 {
		rep.fail("%s@%.0f: %d keys diverged between replicas after the final sweep", w.name, r.rate, r.diverged)
	}
	return len(rep.problems) == bad
}

// fingerprint is everything about a rung that must repeat exactly when
// the same seed and rate run again.
type fingerprint struct {
	out    outcome
	kstats sim.KernelStats
	layers layerCounts
}

func (r *rung) fingerprint() fingerprint { return fingerprint{r.out, r.kstats, r.layers} }

// endToEnd runs the workload's ladder repeatedly until the budget is
// spent (at least twice), checks every rung, and reports the end-to-end
// metrics: host metrics as the median over ladder passes, simulated ones
// from the first pass (every pass must repeat them exactly).
func endToEnd(w *workload, seed uint64, budget time.Duration) *report {
	rep := newReport()
	start := time.Now()
	var passes [][]*rung
	var last time.Duration
	for len(passes) < 2 || time.Since(start)+last <= budget {
		t := time.Now()
		first := len(passes) == 0
		var ladder []*rung
		for _, rate := range w.rates {
			r := runRung(w, seed, rate, rungOpts{heap: rate == w.hi, audit: first})
			rep.attempted++
			if first && !checkRung(rep, w, r) {
				rep.failed++
			}
			ladder = append(ladder, r)
		}
		if !first {
			for i, r := range ladder {
				if !reflect.DeepEqual(r.fingerprint(), passes[0][i].fingerprint()) {
					rep.fail("%s@%.0f: counts differ between two runs of seed %d", w.name, r.rate, seed)
					rep.failed++
				}
			}
		}
		passes = append(passes, ladder)
		last = time.Since(t)
	}

	var hostUs, setupS, heapMB []float64
	for _, ladder := range passes {
		var setup, window time.Duration
		var attempted int64
		for _, r := range ladder {
			setup += r.setup
			window += r.window
			attempted += r.out.attempted
			if r.rate == w.hi {
				heapMB = append(heapMB, float64(r.heapLive)/(1<<20))
			}
		}
		hostUs = append(hostUs, float64(window.Nanoseconds())/1e3/float64(attempted))
		setupS = append(setupS, setup.Seconds())
	}

	ladder := passes[0]
	outs := make([]outcome, len(ladder))
	var hi outcome
	for i, r := range ladder {
		outs[i] = r.out
		if r.rate == w.hi {
			hi = r.out
		}
	}
	knee, ok := kneeOf(outs)
	if !ok {
		rep.fail("%s: the ladder does not bracket the knee (lowest rung meets the SLO: %v, top rung meets it: %v)",
			w.name, outs[0].meetsSLO(), outs[len(outs)-1].meetsSLO())
	}
	beyond := tailBeyond(hi.n, 0.999)
	if beyond < minTailSamples {
		rep.fail("%s: hi rung p99.9 has %d samples beyond it (< %d)", w.name, beyond, minTailSamples)
	}

	rep.add("host_us_per_req", "us", median(hostUs))
	rep.add("setup_s", "s", median(setupS))
	rep.add("heap_live_mb", "MB", median(heapMB))
	if ok {
		rep.add("qps_at_slo", "req/s", outs[knee].qps)
	}
	rep.add("p50_us.lo", "us", outs[0].p50/1e3)
	rep.add("p99_us.hi", "us", hi.p99/1e3)
	if beyond >= minTailSamples {
		rep.add("p999_us.hi", "us", hi.p999/1e3)
	}
	rep.add("ok_frac", "ratio", float64(hi.ok())/float64(hi.attempted))

	// The ladder itself, for reading: one line per rung on stderr keeps
	// stdout to metric lines and the result.
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ladder passes in %.1fs; hi rung p99.9 rests on %d samples beyond it\n",
		w.name, seed, len(passes), time.Since(start).Seconds(), beyond)
	for i, o := range outs {
		mark := ""
		if i == knee {
			mark = "  <- qps_at_slo"
		}
		fmt.Fprintf(os.Stderr, "  %9.0f req/s: attempted %6d ok %6d p50 %7.1fus p99 %7.1fus slo-p99 %7.1fus%s\n",
			ladder[i].rate, o.attempted, o.ok(), o.p50/1e3, o.p99/1e3, o.sloP99/1e3, mark)
	}
	return rep
}

// traced runs the hi rung three ways, repeatedly while the budget lasts:
// as the end-to-end runs do, under a CPU profile with a 1-in-1 tracer,
// and with the product observers toggled. It checks that all three
// simulate the same thing and reports the per-layer metrics.
func traced(w *workload, seed uint64, budget time.Duration) *report {
	rep := newReport()
	start := time.Now()
	var base, tracedRun *rung
	var baseWall, tracedWall, toggledWall []float64
	var samples []profSample
	var last time.Duration
	for len(baseWall) < 1 || time.Since(start)+last <= budget {
		t := time.Now()
		b := runRung(w, seed, w.hi, rungOpts{audit: base == nil})
		var prof []profSample
		tr := runRung(w, seed, w.hi, rungOpts{fullTrace: true, around: func(run func()) {
			var err error
			prof, err = profiled(run)
			if err != nil {
				rep.fail("%s: cpu profile: %v", w.name, err)
			}
		}})
		tg := runRung(w, seed, w.hi, rungOpts{toggleObs: true})
		rep.attempted += 3
		if base == nil && !checkRung(rep, w, b) {
			rep.failed++
		}
		for _, other := range []*rung{tr, tg} {
			if !reflect.DeepEqual(other.fingerprint(), b.fingerprint()) {
				rep.fail("%s: an observed run simulated something else than the plain run", w.name)
				rep.failed++
			}
		}
		if base != nil && !reflect.DeepEqual(b.fingerprint(), base.fingerprint()) {
			rep.fail("%s: counts differ between two runs of seed %d", w.name, seed)
			rep.failed++
		}
		if base == nil {
			base, tracedRun = b, tr
		}
		samples = append(samples, prof...)
		baseWall = append(baseWall, (b.setup + b.window).Seconds())
		tracedWall = append(tracedWall, (tr.setup + tr.window).Seconds())
		toggledWall = append(toggledWall, (tg.setup + tg.window).Seconds())
		last = time.Since(t)
	}

	ks, lc, o := base.kstats, base.layers, base.out
	per := func(v float64) float64 { return ratio(v, float64(lc.issued)) }
	wall := median(baseWall)
	switchNs, spawnNs := kernelTimings()
	rep.add("sim.events_per_req", "count", per(float64(ks.Pops)))
	rep.add("sim.switches_per_req", "count", per(float64(ks.Switches)))
	rep.add("sim.spawns_per_req", "count", per(float64(ks.Spawns)))
	rep.add("sim.self_wake_frac", "ratio", ratio(float64(ks.SelfWakes), float64(ks.ProcWakes)))
	rep.add("sim.stale_wake_frac", "ratio", ratio(float64(ks.StaleWakes), float64(ks.Pops)))
	rep.add("sim.host_ns_per_event", "ns", wall*1e9/float64(ks.Pops))
	rep.add("sim.switch_ns", "ns", switchNs)
	rep.add("sim.spawn_ns", "ns", spawnNs)

	rep.add("runtime.alloc_kb_per_req", "KB", per(float64(base.mallocBytes)/1024))
	rep.add("runtime.gc_per_kreq", "count", per(float64(base.numGC)*1000))
	rep.add("runtime.gc_pause_us_per_kreq", "us", per(float64(base.pauseNs)/1e3*1000))

	shares, total := foldShares(samples)
	for _, l := range shareLayers {
		rep.add("host_share."+l, "ratio", shares[l])
	}
	rep.add("host_share.samples", "count", float64(total))

	rep.add("cpu.host_util", "ratio", lc.hostUtil)
	rep.add("cpu.dimm_util_max", "ratio", lc.dimmUtilMax)
	rep.add("dram.chan_util_max", "ratio", lc.chanUtilMax)
	rep.add("core.poll_hit_frac", "ratio", ratio(float64(lc.pollHits), float64(lc.pollRounds)))
	rep.add("core.tx_busy_per_kreq", "count", per(float64(lc.txBusy)*1000))

	frames := float64(lc.mcntData + lc.mcntCtl)
	rep.add("mcnt.frames_per_req", "count", per(frames))
	rep.add("mcnt.ctl_frac", "ratio", ratio(float64(lc.mcntCtl), frames))
	rep.add("mcnt.resent_frac", "ratio", ratio(float64(lc.mcntResent), float64(lc.mcntData)))

	rep.add("kvstore.miss_frac", "ratio", ratio(float64(lc.misses), float64(lc.gets)))
	rep.add("kvstore.op_rows_per_op", "count", ratio(float64(lc.opRows), float64(lc.opReqs)))

	rep.add("serve.batch_mean", "count", o.batchMean)
	rep.add("serve.queue_p99_us", "us", o.queueP99/1e3)
	rep.add("serve.batchwait_mean_us", "us", o.batchWaitMean/1e3)

	rep.add("admit.opens", "count", float64(o.admit.Opens))
	rep.add("admit.rerouted_frac", "ratio", ratio(float64(o.rerouted), float64(o.attempted)))
	rep.add("admit.shed_frac", "ratio", ratio(float64(o.shed), float64(o.attempted)))
	rep.add("faults.flap_drops", "count", float64(lc.flapDrops))

	rep.add("replica.forwards_per_set", "count", ratio(float64(o.repl.Forwards), float64(lc.primarySets)))
	rep.add("replica.max_pending", "count", float64(o.repl.MaxPending))
	rep.add("replica.sync_acks", "count", float64(o.repl.SyncAcks))
	rep.add("replica.dropped", "count", float64(o.repl.Dropped))
	rep.add("replica.journal_records", "count", float64(lc.journal))

	offloaded := o.ops.MultiGet.Offloaded + o.ops.Scan.Offloaded + o.ops.Filter.Offloaded + o.ops.RMW.Offloaded
	issued := o.ops.Total()
	rep.add("nmop.offload_frac", "ratio", ratio(float64(offloaded), float64(issued)))
	rep.add("nmop.channel_bytes_per_op", "B", ratio(float64(o.ops.Bytes()), float64(issued)))

	for _, a := range tracedRun.tracer.Attribution() {
		if a.Phase == "Total" {
			continue
		}
		rep.add("phase."+a.Phase+".mean_us", "us", a.MeanNs/1e3)
		rep.add("phase."+a.Phase+".p99_us", "us", a.P99Ns/1e3)
	}

	// obs.overhead_frac compares observers on against observers off; the
	// toggled run is whichever of the two the workload does not run.
	toggled := median(toggledWall)
	if w.observed {
		rep.add("obs.overhead_frac", "ratio", wall/toggled-1)
	} else {
		rep.add("obs.overhead_frac", "ratio", toggled/wall-1)
	}
	rep.add("trace.overhead_frac", "ratio", median(tracedWall)/wall-1)

	fmt.Fprintf(os.Stderr, "%s seed %d: traced hi rung (%.0f req/s) %d times in %.1fs, %d profile samples\n",
		w.name, seed, w.hi, len(baseWall), time.Since(start).Seconds(), total)
	return rep
}
