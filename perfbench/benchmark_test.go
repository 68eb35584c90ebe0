package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/workload"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestManifestMatchesProgram checks that BENCHMARK.json at the repository
// root names exactly the workloads and metrics the program reports, in the
// same order and with the same units.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	r := &result{sp: specs[0], nom: &phase{}, closed: &phase{}, tr: &tracer{}, comp: &compactor{}}
	check := func(kind string, want []manifestMetric, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: manifest lists %d metrics, program reports %d", kind, len(want), len(got))
			return
		}
		for i := range got {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, r.endToEnd())
	check("per_layer", m.PerLayer, r.perLayer())
}

// TestBlockTail checks the tail estimator: the median of per-block p99s
// with enough samples, the pooled tail otherwise.
func TestBlockTail(t *testing.T) {
	w := &windowRec{}
	for i := 0; i < 3*blockSamples; i++ {
		w.upd = append(w.upd, float64(i%blockSamples))
	}
	if q, v, n := blockTail([]*windowRec{w}, updOf); q != 0.99 || v != 989 || n != 3 {
		t.Fatalf("blocks: q=%v v=%v n=%d", q, v, n)
	}
	short := &windowRec{upd: w.upd[:200]}
	if q, _, n := blockTail([]*windowRec{short}, updOf); q != 0.95 || n != 1 {
		t.Fatalf("pooled: q=%v n=%d", q, n)
	}
	if _, _, n := blockTail([]*windowRec{{upd: w.upd[:50]}}, updOf); n != 0 {
		t.Fatalf("too few samples: n=%d", n)
	}
}

// TestInflightLowWater checks that the compaction watermark never passes a
// live transaction's start bound.
func TestInflightLowWater(t *testing.T) {
	last := uint64(10)
	s := newInflightSet(2, func() uint64 { return last })
	if got := s.lowWater(); got != 11 {
		t.Fatalf("idle: %d", got)
	}
	s.enter(1)
	last = 20
	if got := s.lowWater(); got != 11 {
		t.Fatalf("one live transaction: %d", got)
	}
	s.leave(1)
	if got := s.lowWater(); got != 21 {
		t.Fatalf("after leave: %d", got)
	}
}

// TestSmallRun drives a small stack through every phase's code path with
// compaction running, then checks that every acked commit is visible and
// survives recovery. Run it with -race.
func TestSmallRun(t *testing.T) {
	for _, base := range specs {
		sp := *base
		sp.rows, sp.nominal, sp.sessions = 2000, 400, 8
		t.Run(sp.name, func(t *testing.T) {
			tr := &tracer{}
			acks := &ackLog{}
			st, err := openStack(&sp, t.TempDir(), tr, acks)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			d := &loader{st: st, tr: tr, acks: acks,
				inflight: newInflightSet(openWorkers+sp.sessions, func() uint64 { return uint64(st.clock.Last()) })}
			comp := startCompactor(st.store, st.so, d.inflight, 50*time.Millisecond)
			mix := workload.NewMix(sp.mix, sp.generator())
			tr.on.Store(true)
			p := newPhase(100 * time.Millisecond)
			d.openLoop(p, sp.nominal, 300*time.Millisecond, mix, rand.New(rand.NewSource(1)), func(w int) {
				tr.on.Store(w%2 == 0)
			})
			rates := d.closedLoop(newPhase(0), sp.sessions, time.Second, &sp, 1)
			comp.close()
			if p.txns != p.offered || p.failed != 0 || len(rates) != 1 || rates[0] == 0 {
				t.Fatalf("txns=%d offered=%d failed=%d rates=%v", p.txns, p.offered, p.failed, rates)
			}
			if n := countMismatches(st.so, acks.acks); n != 0 {
				t.Fatalf("%d acked commits not visible", n)
			}
			st.close()
			if lost, err := checkRecovered(st, acks.acks); err != nil || lost != 0 {
				t.Fatalf("recovery: lost=%d err=%v", lost, err)
			}
		})
	}
}
