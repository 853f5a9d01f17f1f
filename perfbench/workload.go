package main

import (
	"runtime"
	"time"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Shape shared by every workload: one MCN server at the MCN5 optimization
// level with eight DIMM shards, a 4000-key × 128B Zipf(0.99) keyspace
// preloaded into every store, batching on the shard connections, and a
// 1ms simulated warm-up before the measured window opens.
const (
	numShards  = 8
	numKeys    = 4000
	valueBytes = 128
	sloNs      = 40e3 // the serving tier's 40µs p99 objective
	kvPort     = 11211
	warmup     = sim.Millisecond
	drain      = 2 * sim.Millisecond
	flapDimm   = "host/mcn3"
	// obsSampleN is the 1-in-N span sampling the observed workload runs
	// its tracer at.
	obsSampleN = 8
)

// batch is the coalescing bound of the "+batch" serving topologies.
var batch = serve.BatchConfig{MaxRequests: 16, MaxBytes: 8 << 10, Window: 2 * sim.Microsecond}

// workload is one open-loop Poisson rate ladder over one serving
// configuration.
type workload struct {
	name, why string
	// rates is the ladder in req/s, ascending. Its first rung is lo, the
	// light-load point; hi, a rung just under the knee, is the operating
	// point the tail metrics and the traced run use.
	rates []float64
	hi    float64
	// measure is the measured window of every rung but hi; hiMeasure is
	// the hi rung's, long enough that its p99.9 rests on more than ten
	// samples beyond it.
	measure, hiMeasure sim.Duration

	getFrac   float64
	syncEvery int
	mcnt      bool // memory-channel hops on mcnt instead of TCP
	admit     bool // admission control with re-route
	repl      bool // R=2 primary/backup replication (implies admit)
	ops       bool // near-memory operator traffic
	flap      bool // flapDimm offline for 2ms from 1ms into the window
	observed  bool // tracer (1-in-obsSampleN), registry and timeline attached
}

var workloads = []*workload{
	{
		name:      "get-mcnt",
		why:       "95% GET on mcn5+batch with the channel hops on mcnt: sim kernel, IRQs, SRAM/DRAM and mcnt carry the load; TCP, replica, nmop and obs are idle",
		rates:     []float64{200e3, 1e6, 2e6, 3e6, 4e6, 5e6, 5.3e6, 5.6e6, 5.9e6, 6.2e6, 6.5e6, 7e6},
		hi:        5e6,
		measure:   3 * sim.Millisecond,
		hiMeasure: 10 * sim.Millisecond,
		getFrac:   0.95,
		mcnt:      true,
	},
	{
		name:      "set-repl-tcp",
		why:       "50% SET on mcn5+batch+repl over TCP, every 8th SET synchronous: netstack TCP, replica forwarding and the journal carry the load; mcnt is idle",
		rates:     []float64{200e3, 300e3, 350e3, 375e3, 400e3, 425e3, 450e3, 500e3, 600e3},
		hi:        300e3,
		measure:   20 * sim.Millisecond,
		hiMeasure: 100 * sim.Millisecond,
		getFrac:   0.5,
		syncEvery: 8,
		admit:     true,
		repl:      true,
	},
	{
		name:      "ops-flap-observed",
		why:       "mcn5+batch+admit+ops with host/mcn3 offline for 2ms and tracer, registry and timeline attached: the only workload with nmop, faults, admit re-route and obs on the measured path",
		rates:     []float64{200e3, 500e3, 1e6, 1.2e6, 1.4e6, 1.6e6, 1.8e6, 2e6, 2.5e6},
		hi:        1e6,
		measure:   10 * sim.Millisecond,
		hiMeasure: 60 * sim.Millisecond,
		getFrac:   0.95,
		admit:     true,
		ops:       true,
		flap:      true,
		observed:  true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// window is the measured window of the rung at rate.
func (w *workload) window(rate float64) sim.Duration {
	if rate == w.hi {
		return w.hiMeasure
	}
	return w.measure
}

// rungOpts selects what one rung run attaches beyond the workload itself.
type rungOpts struct {
	// toggleObs flips the workload's product observers (tracer, registry,
	// timeline): attached where the workload has none, removed where it
	// has them. obs.overhead_frac compares the two.
	toggleObs bool
	// fullTrace replaces the workload's tracer by a 1-in-1 tracer for
	// the phase table (and attaches one where the workload has none).
	fullTrace bool
	// heap forces a GC after serve.Run and records the live heap.
	heap bool
	// audit quiesces the run after the deadline and records the
	// transport and replication audits.
	audit bool
	// around wraps serve.Run (the traced run's CPU profile).
	around func(run func())
}

// rung is one simulated run of one ladder rate, with everything the
// benchmark derives from it.
type rung struct {
	rate float64
	out  outcome
	// Host times: setup is kernel creation to the measured window
	// opening (topology, preload, simulated warm-up); window is the
	// window opening to serve.Run returning (window plus drain).
	setup, window time.Duration
	heapLive      uint64 // bytes live after a forced GC (opts.heap)
	// The runtime's allocation and GC activity across serve.Run.
	mallocBytes, numGC, pauseNs uint64

	kstats sim.KernelStats
	layers layerCounts
	// tracer is the run's 1-in-1 tracer (opts.fullTrace only).
	tracer *obs.Tracer
	// Audits (opts.audit): mcnt accounting drift and replicas diverged.
	mcntDrift []string
	diverged  int
}

// runRung builds the workload's topology on a fresh kernel and runs one
// rate through serve.Run.
func runRung(w *workload, seed uint64, rate float64, o rungOpts) *rung {
	t0 := time.Now()
	k := sim.NewKernel()
	srv := cluster.NewMcnServer(k, numShards, core.MCN5.Options())
	var fab *mcnt.Fabric
	if w.mcnt {
		fab = mcnt.Attach(k, srv.Host, mcnt.DefaultParams())
	}
	cfg := serve.Config{
		Seed: seed,
		Workload: serve.Workload{
			Keys: numKeys, ValueBytes: valueBytes,
			Popularity: serve.Zipfian, ZipfTheta: 0.99,
			GetFrac: w.getFrac, SyncEvery: w.syncEvery,
		},
		RatePerSec: rate,
		Batch:      batch,
		Warmup:     warmup,
		Measure:    w.window(rate),
		Drain:      drain,
	}
	for _, m := range srv.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		if fab != nil {
			ep.Transport = fab.TransportFor(m.Node)
		}
		s := kvstore.NewServer(k, ep, kvPort)
		cfg.Shards = append(cfg.Shards, serve.Shard{Name: m.Node.Name, Addr: m.IP, Port: kvPort, Server: s})
	}
	client := cluster.Endpoint{Node: srv.Host.Node, IP: srv.Host.HostMcnIP()}
	if fab != nil {
		client.Transport = fab.TransportFor(srv.Host.Node)
	}
	cfg.Clients = []cluster.Endpoint{client}
	if w.admit || w.repl {
		cfg.Admit = admit.Config{On: true, Policy: admit.Reroute}
	}
	if w.repl {
		cfg.Repl = replica.Config{On: true}
	}
	if w.ops {
		cfg.Ops = serve.OpsConfig{On: true, ReturnMatches: true}
	}

	measStart := k.Now().Add(warmup)
	var inj *faults.Injector
	var flapStart, flapEnd sim.Time
	if w.flap {
		flapStart = measStart.Add(sim.Millisecond)
		flapEnd = flapStart.Add(2 * sim.Millisecond)
		inj = faults.New(k, faults.Plan{
			Seed:      seed,
			DimmFlaps: []faults.DimmFlap{{Name: flapDimm, Start: flapStart, End: flapEnd}},
		})
		srv.InjectFaults(inj)
	}

	observers := w.observed != o.toggleObs
	sampleN := 0
	switch {
	case o.fullTrace:
		sampleN = 1
	case observers:
		sampleN = obsSampleN
	}
	var tr *obs.Tracer
	if sampleN > 0 {
		tr = obs.NewTracer(seed, sampleN, 0)
		srv.Host.Driver.ChanTap = tr
		for _, m := range srv.Mcns {
			m.Drv.ChanTap = tr
		}
		if fab != nil {
			fab.SetTap(tr)
		}
		cfg.Tracer = tr
	}
	var tl *obs.Timeline
	if observers {
		tl = obs.NewTimeline(k.Now(), obs.TimelineConfig{SLONs: sloNs})
		if w.flap {
			tl.AddFault(flapDimm, flapStart, flapEnd)
		}
		if fab != nil {
			fab.OnResend = tl.McntResent
			fab.OnCreditStall = tl.McntCreditStall
		}
		cfg.Metrics, cfg.Timeline = obs.NewRegistry(), tl
	}

	// The measured window's host-side opening: a no-op callback at the
	// window's first instant. It touches no simulated state.
	var tOpen time.Time
	k.At(measStart, func() { tOpen = time.Now() })

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var res *serve.Result
	run := func() { res = serve.Run(k, cfg) }
	if o.around != nil {
		o.around(run)
	} else {
		run()
	}
	tEnd := time.Now()
	runtime.ReadMemStats(&ms1)
	if tl != nil {
		cfg.Metrics.Snapshot(k.Now())
		tl.Finalize()
	}

	r := &rung{
		rate: rate, out: outcomeOf(res),
		setup: tOpen.Sub(t0), window: tEnd.Sub(tOpen),
		mallocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		numGC:       uint64(ms1.NumGC - ms0.NumGC),
		pauseNs:     ms1.PauseTotalNs - ms0.PauseTotalNs,
		kstats:      k.Stats(),
	}
	if o.fullTrace {
		r.tracer = tr
	}
	r.layers = readLayers(k, srv, fab, inj, cfg.Shards, res)
	if o.heap {
		runtime.GC()
		var hm runtime.MemStats
		runtime.ReadMemStats(&hm)
		r.heapLive = hm.HeapAlloc
	}
	if o.audit {
		// Let in-flight frames, forward windows and resends settle, then
		// close out replication with one anti-entropy sweep.
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
		if fab != nil {
			r.mcntDrift = fab.CheckAccounting()
		}
		if res.Repl != nil {
			k.Go("perfbench/final-sweep", func(p *sim.Proc) { res.Repl.FinalSweep(p) })
			k.RunUntil(k.Now().Add(5 * sim.Millisecond))
			for _, sh := range cfg.Shards {
				r.diverged += replica.Diverged(sh.Server, sh.Backup)
			}
		}
	}
	k.Shutdown()
	return r
}
