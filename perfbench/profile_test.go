package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
	"time"

	"github.com/mcn-arch/mcn/internal/sim"
)

func TestLayerOfChargesInnermostModuleFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", modulePrefix + "sram.(*Ring).Push", modulePrefix + "core.(*HostPort).Transmit", modulePrefix + "sim.(*shell).run"}, "sram"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", modulePrefix + "kvstore.(*Server).serve"}, "kvstore"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{modulePrefix + "obs.(*Tracer).Finish", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim"},
		{[]string{modulePrefix + "ethdev.(*NIC).poll"}, "other"},
		{[]string{"runtime.nanotime1"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldSharesChargesEverySampleOnceAndSumsToOne(t *testing.T) {
	samples := []profSample{
		{[]string{modulePrefix + "sim.(*Kernel).loop"}, 5},
		{[]string{"runtime.gcBgMarkWorker"}, 2},
		{[]string{modulePrefix + "mcnt.(*linkEnd).send"}, 3},
		{[]string{"runtime.usleep"}, 1},
	}
	shares, total := foldShares(samples)
	if total != 11 {
		t.Fatalf("total %d, want 11", total)
	}
	checkShares(t, shares)
	if shares["sim"] != 5.0/11 || shares["gc"] != 2.0/11 || shares["mcnt"] != 3.0/11 || shares["other"] != 1.0/11 {
		t.Fatalf("shares %v", shares)
	}
}

func checkShares(t *testing.T, shares map[string]float64) {
	t.Helper()
	if len(shares) != len(shareLayers) {
		t.Fatalf("%d layers, want %d", len(shares), len(shareLayers))
	}
	sum := 0.0
	for _, l := range shareLayers {
		v, ok := shares[l]
		if !ok || v < 0 {
			t.Fatalf("layer %s: share %v present %v", l, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

// pb is a tiny protobuf encoder for hand-built profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(u uint64) {
	for u >= 0x80 {
		b.WriteByte(byte(u) | 0x80)
		u >>= 7
	}
	b.WriteByte(byte(u))
}
func (b *pb) num(field int, u uint64) { b.varint(uint64(field)<<3 | 0); b.varint(u) }
func (b *pb) msg(field int, m []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(m)))
	b.Write(m)
}

func TestParseProfileDecodesPackedUnpackedAndInlined(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "leaf", "inlinedCaller", "root"} {
		prof.msg(6, []byte(s))
	}
	for id, name := range []uint64{1, 2, 3} {
		var f pb
		f.num(1, uint64(id+1))
		f.num(2, name)
		prof.msg(5, f.Bytes())
	}
	// Location 1 holds leaf inlined into inlinedCaller; location 2 root.
	var l1, l2, line pb
	l1.num(1, 1)
	line.num(1, 1)
	l1.msg(4, line.Bytes())
	line.Reset()
	line.num(1, 2)
	l1.msg(4, line.Bytes())
	l2.num(1, 2)
	line.Reset()
	line.num(1, 3)
	l2.msg(4, line.Bytes())
	prof.msg(4, l1.Bytes())
	prof.msg(4, l2.Bytes())
	// Sample one: packed locations and values; sample two: unpacked.
	var s1, packed pb
	packed.varint(1)
	packed.varint(2)
	s1.msg(1, packed.Bytes())
	packed.Reset()
	packed.varint(7)
	packed.varint(7000000)
	s1.msg(2, packed.Bytes())
	prof.msg(2, s1.Bytes())
	var s2 pb
	s2.num(1, 2)
	s2.num(2, 3)
	s2.num(2, 3000000)
	prof.msg(2, s2.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].count != 7 || got[1].count != 3 {
		t.Fatalf("samples %+v", got)
	}
	if want := []string{"leaf", "inlinedCaller", "root"}; !equal(got[0].stack, want) {
		t.Fatalf("stack %v, want %v", got[0].stack, want)
	}
	if want := []string{"root"}; !equal(got[1].stack, want) {
		t.Fatalf("stack %v, want %v", got[1].stack, want)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProfiledKernelRun profiles a real sim kernel workload and folds it.
func TestProfiledKernelRun(t *testing.T) {
	samples, err := profiled(func() {
		deadline := time.Now().Add(300 * time.Millisecond)
		for time.Now().Before(deadline) {
			k := sim.NewKernel()
			q := sim.NewQueue[int](k, 0)
			k.Go("producer", func(p *sim.Proc) {
				for i := 0; i < 2000; i++ {
					q.Put(p, i)
					p.Sleep(sim.Nanosecond)
				}
				q.Close()
			})
			k.Go("consumer", func(p *sim.Proc) {
				for {
					if _, ok := q.Get(p); !ok {
						return
					}
				}
			})
			k.Run()
			k.Shutdown()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, total := foldShares(samples)
	if total == 0 {
		t.Skip("no CPU profile samples on this host")
	}
	checkShares(t, shares)
	if shares["sim"] == 0 {
		t.Fatalf("a sim-only run charged nothing to sim: %v", shares)
	}
}
