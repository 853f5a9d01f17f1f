package main

import (
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// layerCounts is what one run's public counters say about each layer.
// Every field is a deterministic function of the seed and the rate, so
// two runs of the same rung must agree on all of them exactly.
type layerCounts struct {
	// issued counts requests over the whole simulated run (warm-up and
	// window), the base the per-request layer counts divide by.
	issued int64

	hostUtil, dimmUtilMax, chanUtilMax float64
	pollRounds, pollHits, txBusy       int64

	mcntData, mcntCtl, mcntResent int64

	gets, misses, opReqs, opRows int64
	primarySets, journal         int64

	flapDrops int64
}

// readLayers reads the public counters of one finished run.
func readLayers(k *sim.Kernel, srv *cluster.McnServer, fab *mcnt.Fabric, inj *faults.Injector,
	shards []serve.Shard, res *serve.Result) layerCounts {
	var c layerCounts
	for _, ss := range res.PerShard {
		c.issued += ss.IssuedEver
	}
	c.issued += res.AdmitCounters.Shed

	span := sim.Duration(k.Now()).Seconds()
	chanUtil := func(chans []*dram.Channel) {
		for _, ch := range chans {
			c.chanUtilMax = max(c.chanUtilMax, ch.BusyTime.Busy.Seconds()/span)
		}
	}
	h := srv.Host
	c.hostUtil = h.CPU.Utilization()
	chanUtil(h.Channels)
	for _, m := range srv.Mcns {
		c.dimmUtilMax = max(c.dimmUtilMax, m.CPU.Utilization())
		chanUtil(m.Channels)
		c.txBusy += m.Drv.TxBusy
	}
	c.pollRounds, c.pollHits = h.Driver.PollRounds, h.Driver.PollHits
	c.txBusy += h.Driver.TxBusy

	if fab != nil {
		c.mcntData, c.mcntCtl, c.mcntResent = fab.DataFrames, fab.CtlFrames, fab.Resent
	}

	var stores []*kvstore.Server
	for _, sh := range shards {
		c.primarySets += sh.Server.Sets
		c.journal += int64(sh.Server.Seq())
		stores = append(stores, sh.Server)
		if sh.Backup != nil {
			stores = append(stores, sh.Backup)
		}
	}
	for _, s := range stores {
		c.gets += s.Gets
		c.misses += s.Misses
		c.opReqs += s.MultiGets + s.Scans + s.Filters + s.CASes + s.FAdds
		c.opRows += s.OpRows
	}

	c.flapDrops = h.Driver.Recov.CarrierDrops
	if inj != nil {
		c.flapDrops += inj.Totals().FlapDrops
	}
	return c
}
