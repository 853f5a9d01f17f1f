package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/mcn-arch/mcn/internal/sim"
)

// profileHz is the traced run's CPU sampling rate, ten times pprof's
// default so a one-second run yields a few thousand samples.
const profileHz = 1000

// profiled runs fn under a CPU profile and returns its samples.
func profiled(fn func()) ([]profSample, error) {
	// Setting the rate first makes StartCPUProfile keep it (it warns on
	// stderr that the rate is already set).
	runtime.SetCPUProfileRate(profileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// kernelTimings measures two sim kernel primitives in isolation, each as
// the median of several rounds: the host time of one goroutine switch
// (two processes ping-ponging through queues) and of one spawn (a parent
// process spawning a child that exits at once, then yielding to it —
// the per-interrupt pattern of cpu.RaiseIRQ).
func kernelTimings() (switchNs, spawnNs float64) {
	const rounds, n = 5, 20000
	var sw, sp []float64
	for i := 0; i < rounds; i++ {
		k := sim.NewKernel()
		ping, pong := sim.NewQueue[int](k, 0), sim.NewQueue[int](k, 0)
		k.Go("ping", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				ping.Put(p, j)
				pong.Get(p)
			}
			ping.Close()
		})
		k.Go("pong", func(p *sim.Proc) {
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(p, v)
			}
		})
		t := time.Now()
		k.Run()
		el := time.Since(t)
		sw = append(sw, float64(el.Nanoseconds())/float64(k.Stats().Switches))
		k.Shutdown()

		k = sim.NewKernel()
		k.Go("parent", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				k.Go("child", func(*sim.Proc) {})
				p.Yield()
			}
		})
		t = time.Now()
		k.Run()
		el = time.Since(t)
		sp = append(sp, float64(el.Nanoseconds())/float64(k.Stats().Spawns))
		k.Shutdown()
	}
	return median(sw), median(sp)
}
