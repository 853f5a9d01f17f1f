package main

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn"
	"github.com/mcn-arch/mcn/internal/exp"
)

// TestCheckArtifact builds a small artifact from fresh runs — one curve
// point at 200k req/s plus the faults, ops and wall sections — and
// drives -check over it: the untouched artifact passes, and one tampered
// value per section fails with exactly that section named.
func TestCheckArtifact(t *testing.T) {
	const seed = 42
	ladder := []float64{200e3}
	b, _ := runBench(seed, ladder, mcn.DefaultServeSLONs)
	for _, c := range b.Curves {
		if c.Topo == "mcn5" {
			b.Curves = []benchCurveJSON{c}
			break
		}
	}
	wall := exp.WallBenchOnce(seed, "mcn5", 200e3, 1)
	// Only a rate below the artifact's fails, and the rate is the one
	// host-dependent column: recording half the measured rate keeps a
	// loaded test host from reading as a simulator slowdown.
	wall.EventsPerSec /= 2
	a := artifact{benchJSON: *b, Points: []mcn.WallBenchPoint{wall}}

	if fails, _ := checkArtifact(&a, seed, ladder); len(fails) != 0 {
		t.Fatalf("untouched artifact drifted:\n%s", strings.Join(fails, "\n"))
	}

	a.Curves[0].Points[0].P99Ns++
	a.Faults.Shed++ // the admission half of the faults section
	a.Ops.Rows[0].DimmFilterBytes++
	a.Points[0].Switches++
	fails, _ := checkArtifact(&a, seed, ladder)
	for _, want := range []struct{ section, field string }{
		{"curves", "p99_ns"},
		{"faults", "shed"},
		{"ops", "rows[0].dimm_filter_bytes"},
		{"wall", "switches"},
	} {
		found := false
		for _, f := range fails {
			found = found || strings.HasPrefix(f, want.section+": ") && strings.Contains(f, want.field)
		}
		if !found {
			t.Errorf("tampered %s %s not reported:\n%s", want.section, want.field, strings.Join(fails, "\n"))
		}
	}
	if len(fails) != 4 {
		t.Errorf("%d drifts for 4 tampered values:\n%s", len(fails), strings.Join(fails, "\n"))
	}

	if fails, _ := checkArtifact(&a, seed+1, ladder); len(fails) != 1 || !strings.HasPrefix(fails[0], "seed: ") {
		t.Errorf("seed mismatch not refused: %v", fails)
	}
	empty := artifact{benchJSON: benchJSON{Seed: seed}}
	if fails, _ := checkArtifact(&empty, seed, ladder); len(fails) != 1 || !strings.HasPrefix(fails[0], "artifact: ") {
		t.Errorf("sectionless artifact not refused: %v", fails)
	}
	disjoint := artifact{benchJSON: benchJSON{Seed: seed, Curves: []benchCurveJSON{
		{Topo: "mcn5", Points: []benchPointJSON{{OfferedQPS: 300e3}}},
	}}}
	if fails, _ := checkArtifact(&disjoint, seed, ladder); len(fails) != 1 || !strings.Contains(fails[0], "no (topo, rate) point") {
		t.Errorf("artifact sharing no point with the sweep not refused: %v", fails)
	}
}

// TestRunReportOps: a "+ops" single run reports its operator section.
func TestRunReportOps(t *testing.T) {
	o := mcn.RunScenario(mcn.ServeScenario{Seed: 42, Topo: "mcn5+batch+ops", Rate: 200e3})
	js, err := json.Marshal(runReport("mcn5+batch+ops", o.Result))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"ops":`) {
		t.Fatalf("no ops section in %s", js)
	}
}
