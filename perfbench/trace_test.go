package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"sync"
	"testing"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested child", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"child past the end is clipped", []span{{Start: 90, End: 120}}, 90},
		{"child outside is ignored", []span{{Start: 200, End: 300}}, 100},
		{"disjoint children add", []span{{Start: 0, End: 10}, {Start: 50, End: 60}, {Start: 95, End: 100}}, 75},
		{"child covering everything", []span{{Start: -5, End: 105}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAdoptMatchesKeyAndInterval(t *testing.T) {
	parents := []span{
		{ID: 1, Key: "a", Start: 0, End: 100},
		{ID: 2, Key: "b", Start: 10, End: 100},
		{ID: 3, Key: "a", Start: 20, End: 100}, // a second request for "a"
	}
	children := []span{
		{Key: "a", Start: 5, End: 8},    // only parent 1 has started
		{Key: "a", Start: 30, End: 40},  // both "a" parents contain it: latest start wins
		{Key: "b", Start: 30, End: 40},  // parent 2
		{Key: "c", Start: 30, End: 40},  // no parent has key "c"
		{Key: "b", Start: 90, End: 110}, // outlives parent 2
	}
	kids := adopt(parents, children)
	if len(kids[1]) != 1 || len(kids[2]) != 1 || len(kids[3]) != 1 {
		t.Fatalf("adopt grouped %v", kids)
	}
	if kids[1][0].Start != 5 || kids[3][0].Start != 30 || kids[2][0].Key != "b" {
		t.Errorf("adopt assigned %v", kids)
	}
	if children[3].Parent != 0 || children[4].Parent != 0 {
		t.Errorf("orphans were adopted: %+v", children[3:])
	}
}

func TestPackageOfAndLayerFolding(t *testing.T) {
	for fn, want := range map[string]string{
		"ptbsim/internal/cpu.(*Core).fetch":          "cpu",
		"ptbsim/internal/isa.Decode":                 "cpu",
		"ptbsim/internal/xrand.(*Rand).Uint64":       "workload",
		"ptbsim/internal/mem.(*DRAM).Access":         "cache",
		"ptbsim/internal/dvfs.(*Governor).Tick":      "budget",
		"ptbsim/internal/obs.(*Recorder).Tick":       "metrics",
		"ptbsim/internal/sim.(*System).Step":         "sim",
		"ptbsim/internal/sched.(*Scheduler[...]).Do": "other",
		"ptbsim.(*Result).Digest":                    "other",
		"runtime.mallocgc":                           "runtime",
		"runtime/internal/atomic.Xadd":               "runtime",
		"internal/runtime/maps.(*Map).Get":           "runtime",
		"encoding/json.(*encodeState).marshal":       "other",
		"main.main":                                  "other",
	} {
		if got := layerFor(fn); got != want {
			t.Errorf("layerFor(%q) = %q (package %q), want %q", fn, got, packageOf(fn), want)
		}
	}
	folded := foldByLayer(map[string]int64{
		"ptbsim/internal/cpu.(*Core).fetch": 30,
		"ptbsim/internal/isa.Decode":        5,
		"runtime.mallocgc":                  7,
		"main.main":                         1,
	})
	if folded["cpu"] != 35 || folded["runtime"] != 7 || folded["other"] != 1 || len(folded) != 3 {
		t.Errorf("foldByLayer = %v", folded)
	}
}

// pb is a minimal protocol-buffer writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// TestSelfByFunctionDecodesProfile builds a profile with an inlined frame,
// packed and unpacked repeated fields, and checks self time lands on the
// innermost function of each sample's leaf location.
func TestSelfByFunctionDecodesProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "ptbsim/internal/cpu.(*Core).fetch", "ptbsim/internal/power.(*Meter).Add", "runtime.mallocgc"} {
		prof.bytes(fProfileStrings, []byte(s))
	}
	for id, name := range []uint64{1, 2, 3} {
		var fn pb
		fn.varint(fFunctionID, uint64(id+1))
		fn.varint(fFunctionName, name)
		prof.bytes(fProfileFunction, fn.b)
	}
	// Location 10: Meter.Add inlined into Core.fetch (innermost first).
	// Location 20: mallocgc.
	for _, loc := range []struct {
		id    uint64
		funcs []uint64
	}{{10, []uint64{2, 1}}, {20, []uint64{3}}} {
		var l pb
		l.varint(fLocationID, loc.id)
		for _, f := range loc.funcs {
			var line pb
			line.varint(fLineFunction, f)
			l.bytes(fLocationLine, line.b)
		}
		prof.bytes(fProfileLocation, l.b)
	}
	addSample := func(packed bool, value uint64, locs ...uint64) {
		var s pb
		if packed {
			s.packed(fSampleLocation, locs...)
			s.packed(fSampleValue, 1, value)
		} else {
			for _, l := range locs {
				s.varint(fSampleLocation, l)
			}
			s.varint(fSampleValue, 1)
			s.varint(fSampleValue, value)
		}
		prof.bytes(fProfileSample, s.b)
	}
	addSample(true, 1000, 10, 20)
	addSample(false, 500, 10)
	addSample(true, 300, 20, 10)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	got, err := selfByFunction(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"ptbsim/internal/power.(*Meter).Add": 1500,
		"runtime.mallocgc":                   300,
	}
	if len(got) != len(want) {
		t.Fatalf("selfByFunction = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if _, err := selfByFunction(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestBarrierReleasesRoundsTogether runs parties through many rounds of
// one barrier; no party may start a round before every party finished the
// one before.
func TestBarrierReleasesRoundsTogether(t *testing.T) {
	const parties, rounds = 3, 200
	b := newBarrier(parties)
	var mu sync.Mutex
	arrived := make([]int, rounds)
	forEach(parties, parties, func(int) {
		for r := 0; r < rounds; r++ {
			mu.Lock()
			if r > 0 && arrived[r-1] != parties {
				t.Errorf("round %d started with %d/%d parties through round %d", r, arrived[r-1], parties, r-1)
			}
			arrived[r]++
			mu.Unlock()
			b.wait()
		}
	})
	for r, n := range arrived {
		if n != parties {
			t.Fatalf("round %d: %d parties arrived, want %d", r, n, parties)
		}
	}
}
