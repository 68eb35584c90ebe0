package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/tso"
)

// mapRowTable is the map-based lastCommit shard the open-addressed table
// replaced, kept as the reference implementation TestTableKindsEquivalent
// runs a whole oracle over.
type mapRowTable map[uint64]uint64

func (m mapRowTable) get(key uint64) (uint64, bool) { ts, ok := m[key]; return ts, ok }
func (m mapRowTable) put(key, ts uint64)            { m[key] = ts }
func (m mapRowTable) del(key uint64)                { delete(m, key) }
func (m mapRowTable) len() int                      { return len(m) }
func (m mapRowTable) forEach(fn func(key, ts uint64)) {
	for k, ts := range m {
		fn(k, ts)
	}
}

func newMapRows(sizeHint int) rowTable { return make(mapRowTable, sizeHint) }

// TestTableKindsEquivalent drives an identical randomized command stream —
// commit batches with overlapping row sets, explicit aborts, decide
// replays via updateMax, and status queries — through the production
// oracle (open-addressed shards) and one built over the map reference
// table, and asserts every externally visible decision is bit-identical:
// commit verdicts, commit timestamps, statuses, retained rows, Tmax.
// Bounded configurations force eviction (backward-shift deletes on the
// open table) on every hot row.
func TestTableKindsEquivalent(t *testing.T) {
	for _, engine := range []Engine{SI, WSI} {
		for _, maxRows := range []int{0, 64} {
			for _, shards := range []int{1, 4} {
				mk := func(newRows func(int) rowTable) *StatusOracle {
					so, err := newWithRows(Config{
						Engine:     engine,
						MaxRows:    maxRows,
						MaxCommits: 256,
						Shards:     shards,
						TSO:        tso.New(0, nil),
					}, newRows)
					if err != nil {
						t.Fatal(err)
					}
					return so
				}
				open, mapped := mk(newOpenRows), mk(newMapRows)
				rng := rand.New(rand.NewSource(int64(maxRows)*31 + int64(shards)))
				var starts []uint64
				const rows = 200 // small space: heavy overlap, heavy eviction
				for round := 0; round < 300; round++ {
					n := 1 + rng.Intn(8)
					reqs := make([]CommitRequest, n)
					for i := range reqs {
						ts, err := open.Begin()
						if err != nil {
							t.Fatal(err)
						}
						if _, err := mapped.Begin(); err != nil {
							t.Fatal(err)
						}
						// Age some snapshots so Tmax aborts trigger.
						if rng.Intn(4) == 0 && ts > 40 {
							ts -= 40
						}
						reqs[i].StartTS = ts
						starts = append(starts, ts)
						for j := rng.Intn(6); j >= 0; j-- {
							reqs[i].WriteSet = append(reqs[i].WriteSet, RowID(rng.Intn(rows)))
						}
						for j := rng.Intn(6); j >= 0; j-- {
							reqs[i].ReadSet = append(reqs[i].ReadSet, RowID(rng.Intn(rows)))
						}
					}
					ro, err := open.CommitBatch(reqs)
					if err != nil {
						t.Fatal(err)
					}
					rm, err := mapped.CommitBatch(reqs)
					if err != nil {
						t.Fatal(err)
					}
					for i := range ro {
						if ro[i] != rm[i] {
							t.Fatalf("engine %v maxRows %d shards %d round %d req %d: open %+v, map %+v",
								engine, maxRows, shards, round, i, ro[i], rm[i])
						}
					}
					if rng.Intn(3) == 0 && len(starts) > 0 {
						ts := starts[rng.Intn(len(starts))]
						if err := open.Abort(ts); err != nil {
							t.Fatal(err)
						}
						if err := mapped.Abort(ts); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(3) == 0 {
						// Out-of-order decide-style replay of an old commit.
						r := RowID(rng.Intn(rows))
						ct := uint64(rng.Intn(200))
						open.replayCommit(ct, ct+1, []RowID{r})
						mapped.replayCommit(ct, ct+1, []RowID{r})
					}
					for i := 0; i < 8 && len(starts) > 0; i++ {
						ts := starts[rng.Intn(len(starts))]
						if so, sm := open.Query(ts), mapped.Query(ts); so != sm {
							t.Fatalf("query(%d): open %+v, map %+v", ts, so, sm)
						}
					}
				}
				if to, tm := open.Tmax(), mapped.Tmax(); to != tm {
					t.Fatalf("Tmax: open %d, map %d", to, tm)
				}
				if ro, rm := open.RetainedRows(), mapped.RetainedRows(); ro != rm {
					t.Fatalf("RetainedRows: open %d, map %d", ro, rm)
				}
				for r := 0; r < rows; r++ {
					to, oko := open.LastCommitOf(RowID(r))
					tm, okm := mapped.LastCommitOf(RowID(r))
					if to != tm || oko != okm {
						t.Fatalf("LastCommitOf(%d): open (%d,%v), map (%d,%v)", r, to, oko, tm, okm)
					}
				}
			}
		}
	}
}
