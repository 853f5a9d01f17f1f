package exp

import (
	"fmt"
	"strings"
	"time"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// FlapDimm is the DIMM the standard flap takes offline: 2ms starting 1ms
// into the measured window.
const FlapDimm = "host/mcn3"

// serveWorkload is the keyspace and value size of every serving run.
var serveWorkload = serve.Workload{Keys: 4000, ValueBytes: 128}

// Scenario is one serving run, described as a value. Every serving
// experiment in this package is a list of scenarios handed to Run; the
// same scenario replays bit-identically.
type Scenario struct {
	Seed uint64
	// Topo names the fabric ("mcn0", "mcn5", "10gbe", "scaleup") with any
	// of the composable suffixes ServeTopos documents.
	Topo string
	// Rate is the open-loop offered load (requests/sec); Closed > 0
	// switches to that many closed-loop workers and ignores Rate.
	Rate   float64
	Closed int
	// Flap takes FlapDimm offline for 2ms starting 1ms into the measured
	// window, gives the drain room for the recovery (20ms), makes every
	// 8th SET synchronous on a replicated topology, and audits the run
	// afterwards (mcnt accounting drift, replica divergence).
	Flap bool
	// Measure is the measured window; 0 means 5ms.
	Measure sim.Duration
	// Observers. Sample > 0 attaches a span tracer sampling 1-in-Sample
	// (the fabric's channel and frame taps included); Metrics attaches the
	// metrics registry; Timeline attaches the windowed timeline with its
	// SLO burn-rate monitor. None of them charges simulated time.
	Sample   int
	Metrics  bool
	Timeline bool
	// Mutate, when set, edits the run's configuration last, after the
	// topology suffixes and the flap have applied theirs.
	Mutate func(*serve.Config)
}

// Modes is the set of suffixes a topology string carries.
type Modes struct {
	Batched  bool // "+batch": DefaultServeBatch on the shard connections
	Admitted bool // "+admit" (or "+repl"): DefaultServeAdmit
	Repl     bool // "+repl": DefaultServeRepl
	Mcnt     bool // "+mcnt": the mcnt transport on memory-channel hops
	Ops      bool // "+ops": DefaultServeOps mixed into the workload
}

// parseServeTopo strips the composable suffixes off a topology name, in
// any order, returning the bare fabric and the modes. Replication implies
// admission control: the breaker is the failover signal.
func parseServeTopo(topo string) (fabric string, m Modes) {
	fabric = topo
	for {
		switch {
		case cut(&fabric, "+batch"):
			m.Batched = true
		case cut(&fabric, "+admit"):
			m.Admitted = true
		case cut(&fabric, "+repl"):
			m.Repl, m.Admitted = true, true
		case cut(&fabric, "+mcnt"):
			m.Mcnt = true
		case cut(&fabric, "+ops"):
			m.Ops = true
		default:
			return fabric, m
		}
	}
}

// cut removes suffix from *s and reports whether it was there.
func cut(s *string, suffix string) bool {
	rest, ok := strings.CutSuffix(*s, suffix)
	*s = rest
	return ok
}

// Outcome is one scenario's run: the telemetry, the flap window, the
// observers' artifacts, the post-run audit, and the kernel's own cost.
type Outcome struct {
	Seed uint64
	Modes
	// FlapDimm and the flap window are empty when the scenario did not
	// flap.
	FlapDimm           string
	FlapStart, FlapEnd sim.Time
	Result             *serve.Result
	Degraded           []int
	FlapShards         []string // names of the Degraded shards
	// Tracer, Snapshot (the registry at the end of the run) and Timeline
	// (finalized) are nil unless the scenario attached them.
	Tracer   *obs.Tracer
	Snapshot *obs.Snapshot
	Timeline *obs.Timeline
	// McntFabric is the mcnt fabric's traffic summary ("" on TCP), taken
	// after the audit when there is one. McntDrift is the audit's credit
	// and window accounting check (empty = zero drift); Diverged counts
	// primary/backup key disagreements after the final anti-entropy sweep.
	McntFabric string
	McntDrift  []string
	Diverged   int
	// Wall is the host time serve.Run took; Kernel and SimEnd are the
	// kernel's counters and clock when it returned.
	Wall   time.Duration
	Kernel sim.KernelStats
	SimEnd sim.Time
}

// Run executes one scenario: kernel, topology, fault injection,
// observers, the measured run, then — at the instant the run ends — the
// metrics snapshot, the timeline's finalization and the degraded-shard
// verdict, and only then the post-run audit of a flapped scenario, which
// advances the kernel further.
func Run(s Scenario) *Outcome {
	fabric, m := parseServeTopo(s.Topo)
	k := sim.NewKernel()
	shards, clients, inject, observe, fab := buildServeTopo(k, fabric, m.Mcnt)
	cfg := serve.Config{
		Seed:          s.Seed,
		Workload:      serveWorkload,
		RatePerSec:    s.Rate,
		ClosedWorkers: s.Closed,
		Warmup:        sim.Millisecond,
		Measure:       5 * sim.Millisecond,
		Drain:         2 * sim.Millisecond,
		Shards:        shards,
		Clients:       clients,
	}
	if s.Closed > 0 {
		cfg.RatePerSec = 0
	}
	if s.Measure > 0 {
		cfg.Measure = s.Measure
	}
	if m.Batched {
		cfg.Batch = DefaultServeBatch
	}
	if m.Admitted {
		cfg.Admit = DefaultServeAdmit
	}
	if m.Repl {
		cfg.Repl = DefaultServeRepl
	}
	if m.Ops {
		cfg.Ops = DefaultServeOps
	}
	if s.Flap {
		cfg.Drain = 20 * sim.Millisecond
		if m.Repl {
			cfg.Workload.SyncEvery = 8
		}
	}
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}

	out := &Outcome{Seed: s.Seed, Modes: m}
	if s.Flap {
		out.FlapDimm = FlapDimm
		out.FlapStart = k.Now().Add(cfg.Warmup).Add(sim.Millisecond)
		out.FlapEnd = out.FlapStart.Add(2 * sim.Millisecond)
		inject(faults.New(k, faults.Plan{
			Seed:      s.Seed,
			DimmFlaps: []faults.DimmFlap{{Name: FlapDimm, Start: out.FlapStart, End: out.FlapEnd}},
		}))
	}
	if s.Timeline {
		tl := obs.NewTimeline(k.Now(), obs.TimelineConfig{SLONs: DefaultServeSLONs})
		if s.Flap {
			tl.AddFault(FlapDimm, out.FlapStart, out.FlapEnd)
		}
		if fab != nil {
			fab.OnResend = tl.McntResent
			fab.OnCreditStall = tl.McntCreditStall
		}
		cfg.Timeline, out.Timeline = tl, tl
	}
	if s.Sample > 0 {
		out.Tracer = obs.NewTracer(s.Seed, s.Sample, 0)
		observe(out.Tracer)
		cfg.Tracer = out.Tracer
	}
	if s.Metrics {
		cfg.Metrics = obs.NewRegistry()
	}

	t0 := time.Now()
	res := serve.Run(k, cfg)
	out.Wall = time.Since(t0)
	out.Kernel, out.SimEnd = k.Stats(), k.Now()
	out.Result, out.Degraded = res, res.Degraded()
	for _, i := range out.Degraded {
		out.FlapShards = append(out.FlapShards, res.PerShard[i].Name)
	}
	if cfg.Metrics != nil {
		out.Snapshot = cfg.Metrics.Snapshot(k.Now())
	}
	out.Timeline.Finalize()

	if s.Flap && fab != nil {
		// Let in-flight frames and the resend window settle (several
		// ResendTimeout rounds past the drain), then audit: every byte the
		// flap ate must have been recovered and every credit grant
		// reconverged.
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
		out.McntDrift = fab.CheckAccounting()
	}
	if s.Flap && res.Repl != nil {
		// Convergence: let the async forward windows drain, run one final
		// anti-entropy sweep over every pair, then diff. Writes cut off
		// by the run deadline mid-forward are what the sweep repairs.
		k.RunUntil(k.Now().Add(2 * sim.Millisecond))
		k.Go("exp/final-sweep", func(p *sim.Proc) { res.Repl.FinalSweep(p) })
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
		for _, sh := range cfg.Shards {
			out.Diverged += replica.Diverged(sh.Server, sh.Backup)
		}
	}
	if fab != nil {
		out.McntFabric = fab.String()
	}
	k.Shutdown()
	return out
}

// String renders the run: a flapped scenario leads with the flap window
// and its modes and ends with the audit; otherwise it is the telemetry
// alone.
func (o *Outcome) String() string {
	if o.FlapDimm == "" {
		return o.Result.String()
	}
	var b strings.Builder
	mode := ""
	for _, f := range []struct {
		on   bool
		name string
	}{{o.Batched, "batched"}, {o.Admitted, "admitted"}, {o.Repl, "replicated"}, {o.Mcnt, "mcnt"}, {o.Ops, "ops"}} {
		if f.on {
			mode += ", " + f.name
		}
	}
	fmt.Fprintf(&b, "serving under a DIMM flap: %s offline [%v, %v) (seed %d%s)\n",
		o.FlapDimm, o.FlapStart, o.FlapEnd, o.Seed, mode)
	b.WriteString(o.Result.String())
	if o.Repl {
		fmt.Fprintf(&b, "post-run convergence: %d diverged keys\n", o.Diverged)
	}
	if o.Mcnt {
		fmt.Fprintf(&b, "%s | drift=%d\n", o.McntFabric, len(o.McntDrift))
		for _, d := range o.McntDrift {
			fmt.Fprintf(&b, "  drift: %s\n", d)
		}
	}
	return b.String()
}

// sweep runs topo at each offered load of rates and collects the curve.
func sweep(seed uint64, topo string, rates []float64) ServeTopoCurve {
	c := ServeTopoCurve{Topo: topo}
	for _, rate := range rates {
		r := Run(Scenario{Seed: seed, Topo: topo, Rate: rate}).Result
		c.Points = append(c.Points, ServePoint{
			OfferedQPS: rate,
			Summary:    r.Summary(),
			Errors:     r.Errors,
			Unfinished: r.Unfinished,
			Degraded:   r.Degraded(),
			BatchMean:  r.BatchSize.Mean(),
			BatchMax:   float64(r.BatchSize.Max()),
		})
	}
	return c
}

// buildServeTopo constructs the named fabric on k and returns the shard
// and client sides. Every topology exposes ServeShards kvstore shards.
// observe wires the fabric's driver-level observation points (the MCN
// SRAM channel taps, and the mcnt frame tap when the transport is on)
// into a tracer; it is a no-op on fabrics without an MCN channel
// (serve.Run wires the stack and kvstore taps itself). useMcnt attaches
// the mcnt fabric and installs it as every endpoint's transport, so the
// shard connections ride the credit-based protocol instead of TCP; fab
// is then the attached fabric (nil otherwise).
func buildServeTopo(k *sim.Kernel, topo string, useMcnt bool) (shards []serve.Shard, clients []cluster.Endpoint, inject func(*faults.Injector), observe func(*obs.Tracer), fab *mcnt.Fabric) {
	observe = func(*obs.Tracer) {}
	switch topo {
	case "mcn0", "mcn5":
		opts := core.MCN0.Options()
		if topo == "mcn5" {
			opts = core.MCN5.Options()
		}
		s := cluster.NewMcnServer(k, ServeShards, opts)
		if useMcnt {
			fab = mcnt.Attach(k, s.Host, mcnt.DefaultParams())
		}
		for _, m := range s.Mcns {
			ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
			if fab != nil {
				ep.Transport = fab.TransportFor(m.Node)
			}
			srv := kvstore.NewServer(k, ep, 11211)
			shards = append(shards, serve.Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
		}
		cl := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}
		if fab != nil {
			cl.Transport = fab.TransportFor(s.Host.Node)
		}
		clients = []cluster.Endpoint{cl}
		inject = s.InjectFaults
		observe = func(t *obs.Tracer) {
			s.Host.Driver.ChanTap = t
			for _, m := range s.Mcns {
				m.Drv.ChanTap = t
			}
			if fab != nil {
				fab.SetTap(t)
			}
		}
	case "10gbe":
		c := newEthCluster(k, ServeShards+1)
		eps := c.Endpoints()
		for _, ep := range eps[1:] {
			srv := kvstore.NewServer(k, ep, 11211)
			shards = append(shards, serve.Shard{Name: ep.Node.Name, Addr: ep.IP, Port: 11211, Server: srv})
		}
		clients = eps[:1]
		inject = c.InjectFaults
	case "scaleup":
		h := cluster.NewScaleUp(k, 16)
		ep := cluster.Endpoint{Node: h.Node, IP: netstack.Loopback}
		for i := 0; i < ServeShards; i++ {
			port := uint16(11211 + i)
			srv := kvstore.NewServer(k, ep, port)
			shards = append(shards, serve.Shard{
				Name: fmt.Sprintf("lo:%d", port), Addr: netstack.Loopback, Port: port, Server: srv,
			})
		}
		clients = []cluster.Endpoint{ep}
		inject = func(*faults.Injector) {}
	default:
		panic(fmt.Sprintf("exp: unknown serve topology %q", topo))
	}
	if useMcnt && fab == nil {
		panic(fmt.Sprintf("exp: topology %q has no MCN fabric for +mcnt", topo))
	}
	return shards, clients, inject, observe, fab
}
