package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/serve"
)

func TestServeTopoCurveKnee(t *testing.T) {
	pt := func(qps, p99 float64, errs int64) ServePoint {
		return ServePoint{OfferedQPS: qps, Summary: serve.Summary{QPS: qps, P99: p99}, Errors: errs}
	}
	const slo = 40e3
	for _, tc := range []struct {
		name   string
		points []ServePoint
		want   float64
	}{
		{"never crosses", []ServePoint{pt(100e3, 10e3, 0), pt(200e3, 20e3, 0), pt(300e3, 30e3, 0)}, 300e3},
		{"crosses at the first rung", []ServePoint{pt(100e3, 50e3, 0), pt(200e3, 90e3, 0)}, 0},
		{"unhealthy before the crossing", []ServePoint{pt(100e3, 10e3, 0), pt(200e3, 20e3, 3), pt(300e3, 60e3, 0)}, 100e3},
		{"interpolated crossing", []ServePoint{pt(100e3, 20e3, 0), pt(200e3, 60e3, 0), pt(300e3, 90e3, 0)}, 150e3},
		{"crossing exactly at a rung", []ServePoint{pt(100e3, 20e3, 0), pt(200e3, 40e3, 0), pt(300e3, 90e3, 0)}, 200e3},
		// A p99 that does not rise never crosses: no interpolation, the
		// last point is credited.
		{"p99 does not rise", []ServePoint{pt(100e3, 30e3, 0), pt(200e3, 30e3, 0), pt(300e3, 25e3, 0)}, 300e3},
	} {
		c := ServeTopoCurve{Topo: "t", Points: tc.points}
		if got := c.Knee(slo); got != tc.want {
			t.Errorf("%s: knee %.0f, want %.0f", tc.name, got, tc.want)
		}
	}
}

// fingerprint renders every part of a run's telemetry an observer could
// perturb: the rendered run, each shard's counts and tail, the degraded
// verdict, and the miss and stale-read outcomes.
func fingerprint(o *Outcome) string {
	var b strings.Builder
	b.WriteString(o.String())
	r := o.Result
	for _, ss := range r.PerShard {
		fmt.Fprintf(&b, "%d %s n=%d err=%d unf=%d shed=%d rer=%d miss=%d fo=%d p99=%v max=%d\n",
			ss.Shard, ss.Name, ss.N, ss.Errors, ss.Unfinished, ss.Shed, ss.Rerouted, ss.Misses,
			ss.FailedOver, ss.Lat.Quantile(0.99), ss.Lat.Max())
	}
	fmt.Fprintf(&b, "degraded=%v misses=%d stale=%d\n", r.Degraded(), r.Misses, r.ReplCounters.StaleReads)
	return b.String()
}

// TestObserversZeroPerturbation: attaching any observer — the span tracer
// at 1-in-1, the metrics registry, the windowed timeline — must not move
// a single simulated event on any serving topology, nor under the DIMM
// flap, and each must produce its artifact.
func TestObserversZeroPerturbation(t *testing.T) {
	var scenarios []Scenario
	for _, topo := range ServeTopos {
		scenarios = append(scenarios, Scenario{Seed: 42, Topo: topo, Rate: 200e3})
	}
	scenarios = append(scenarios, flapScenario(42, "mcn5+batch+admit"))
	observers := []struct {
		name     string
		attach   func(*Scenario)
		artifact func(*Outcome) (int, error)
	}{
		{"tracer", func(s *Scenario) { s.Sample = 1 }, func(o *Outcome) (int, error) {
			var buf bytes.Buffer
			if o.Tracer.Finished == 0 {
				return 0, nil
			}
			err := o.Tracer.WritePerfetto(&buf)
			return buf.Len(), err
		}},
		{"registry", func(s *Scenario) { s.Metrics = true }, func(o *Outcome) (int, error) {
			var buf bytes.Buffer
			err := o.Snapshot.WriteJSON(&buf)
			return buf.Len(), err
		}},
		{"timeline", func(s *Scenario) { s.Timeline = true }, func(o *Outcome) (int, error) {
			return len(o.Timeline.JSON().Windows), nil
		}},
	}
	for _, s := range scenarios {
		name := s.Topo
		if s.Flap {
			name += "+flap"
		}
		want := fingerprint(Run(s))
		for _, ob := range observers {
			s := s
			ob.attach(&s)
			o := Run(s)
			if got := fingerprint(o); got != want {
				t.Errorf("%s with the %s attached diverged:\n--- plain ---\n%s--- observed ---\n%s", name, ob.name, want, got)
			}
			if n, err := ob.artifact(o); err != nil || n == 0 {
				t.Errorf("%s: %s artifact empty (size %d, err %v)", name, ob.name, n, err)
			}
		}
	}
}
