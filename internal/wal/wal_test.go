package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// frame wraps s as a one-entry batch payload, the shape a Writer hands its
// ledgers: a FileLedger discards a final batch that does not decode.
func frame(s string) []byte { return appendEntryFrame(nil, []byte(s)) }

func newTestWriter(t *testing.T, cfg Config, n int) (*Writer, []*MemLedger) {
	t.Helper()
	ledgers := make([]*MemLedger, n)
	ls := make([]Ledger, n)
	for i := range ledgers {
		ledgers[i] = NewMemLedger()
		ls[i] = ledgers[i]
	}
	w, err := NewWriter(cfg, ls...)
	if err != nil {
		t.Fatal(err)
	}
	return w, ledgers
}

func TestAppendAndReplay(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 64, BatchDelay: time.Millisecond}, 3)
	var want [][]byte
	for i := 0; i < 20; i++ {
		e := []byte(fmt.Sprintf("entry-%02d", i))
		want = append(want, e)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	for li, l := range ledgers {
		var got [][]byte
		err := Replay(l, func(e []byte) error {
			got = append(got, append([]byte(nil), e...))
			return nil
		})
		if err != nil {
			t.Fatalf("ledger %d: %v", li, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ledger %d: %d entries, want %d", li, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("ledger %d entry %d = %q, want %q", li, i, got[i], want[i])
			}
		}
	}
}

func TestBatchingBySize(t *testing.T) {
	// With a huge delay, only the size trigger can flush.
	w, ledgers := newTestWriter(t, Config{BatchBytes: 100, BatchDelay: time.Hour}, 1)
	entry := make([]byte, 40) // 48 bytes framed; 3rd entry crosses 100
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Append(entry); err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	wg.Wait()
	n, _ := ledgers[0].NumBatches()
	if n != 1 {
		t.Fatalf("expected one size-triggered batch, got %d", n)
	}
	w.Close()
}

func TestBatchingByTime(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 1 << 20, BatchDelay: 5 * time.Millisecond}, 1)
	start := time.Now()
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("time-triggered flush took %v", elapsed)
	}
	n, _ := ledgers[0].NumBatches()
	if n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
	w.Close()
}

func TestQuorumToleratesMinorityFailure(t *testing.T) {
	ledgers := []*MemLedger{NewMemLedger(), NewMemLedger(), NewMemLedger()}
	ledgers[2].FailAppend = func() error { return errors.New("bookie down") }
	w, err := NewWriter(Config{BatchBytes: 8, Quorum: 2},
		ledgers[0], ledgers[1], ledgers[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("survives")); err != nil {
		t.Fatalf("append should survive one failed ledger: %v", err)
	}
	w.Close()
}

func TestQuorumFailure(t *testing.T) {
	ledgers := []*MemLedger{NewMemLedger(), NewMemLedger(), NewMemLedger()}
	boom := func() error { return errors.New("bookie down") }
	ledgers[1].FailAppend = boom
	ledgers[2].FailAppend = boom
	w, err := NewWriter(Config{BatchBytes: 8, Quorum: 2},
		ledgers[0], ledgers[1], ledgers[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed")); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v, want ErrQuorumFailed", err)
	}
	w.Close()
}

func TestAppendAfterClose(t *testing.T) {
	w, _ := newTestWriter(t, Config{}, 1)
	w.Close()
	if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseFlushesPending(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 1 << 20, BatchDelay: time.Hour}, 1)
	done, err := w.AppendAsync([]byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending entry failed: %v", err)
	}
	n, _ := ledgers[0].NumBatches()
	if n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
}

func TestDecodeBatchDetectsCorruption(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 8}, 1)
	if err := w.Append([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := ledgers[0].Corrupt(0); err != nil {
		t.Fatal(err)
	}
	err := Replay(ledgers[0], func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeBatchTruncation(t *testing.T) {
	batch := appendEntryFrame(nil, []byte("hello"))
	for cut := 1; cut < len(batch); cut++ {
		if _, err := DecodeBatch(batch[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		// Entries are never empty (the writer refuses them), so extend
		// the generated ones by a byte.
		for i := range payloads {
			payloads[i] = append(payloads[i], byte(i))
		}
		var batch []byte
		for _, p := range payloads {
			batch = appendEntryFrame(batch, p)
		}
		got, err := DecodeBatch(batch)
		if err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 256, BatchDelay: time.Millisecond}, 3)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.Close()
	count := 0
	err := Replay(ledgers[0], func([]byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*per {
		t.Fatalf("replayed %d entries, want %d", count, writers*per)
	}
}

func TestQuorumOneAcksOnFirstReplica(t *testing.T) {
	fast := NewMemLedger()
	slow := NewMemLedger()
	slow.Latency = 100 * time.Millisecond
	w, err := NewWriter(Config{BatchBytes: 8, Quorum: 1}, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := w.Append([]byte("quick")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Fatalf("quorum-1 append waited for the slow replica: %v", elapsed)
	}
	w.Close()
}

func TestFlushEmptyPending(t *testing.T) {
	w, _ := newTestWriter(t, Config{}, 1)
	w.Flush() // must not panic or write an empty batch
	w.Close()
}

func TestWriterRejectsNoLedgers(t *testing.T) {
	if _, err := NewWriter(Config{}); err == nil {
		t.Fatal("NewWriter with no ledgers must fail")
	}
}

func TestMemLedgerReadBatchRange(t *testing.T) {
	l := NewMemLedger()
	if _, err := l.ReadBatch(0); err == nil {
		t.Fatal("ReadBatch on empty ledger must fail")
	}
	if _, err := l.AppendBatch([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadBatch(-1); err == nil {
		t.Fatal("negative index must fail")
	}
}

func TestFileLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendBatch(frame(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Reopen and verify the index is rebuilt.
	l2, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n, _ := l2.NumBatches()
	if n != 5 {
		t.Fatalf("reopened ledger has %d batches, want 5", n)
	}
	b, err := l2.ReadBatch(3)
	if err != nil || !bytes.Equal(b, frame("batch-3")) {
		t.Fatalf("ReadBatch(3) = %q, %v", b, err)
	}
}

// TestFileLedgerTornTail: a writer reopening the file drops and truncates
// a torn final batch, whether the crash left it short (the header promises
// more bytes than exist) or zero-filled (the header and the file's size
// extension reached the disk, the body did not).
func TestFileLedgerTornTail(t *testing.T) {
	torn := map[string][]byte{
		"short":       {0, 0, 0, 0, 0, 0, 0, 99, 'x'},
		"zero-filled": fileRecord(make([]byte, 64)),
	}
	for name, tail := range torn {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, err := OpenFileLedger(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendBatch(frame("complete")); err != nil {
				t.Fatal(err)
			}
			intact := l.end
			l.Close()
			appendRaw(t, path, tail)

			l2, err := OpenFileLedger(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if n, _ := l2.NumBatches(); n != 1 {
				t.Fatalf("torn tail not discarded: %d batches", n)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != intact {
				t.Fatalf("torn tail not truncated: %v, want size %d", err, intact)
			}
			// Appends resume where the intact log ends.
			if _, err := l2.AppendBatch(frame("next")); err != nil {
				t.Fatal(err)
			}
			if b, err := l2.ReadBatch(1); err != nil || !bytes.Equal(b, frame("next")) {
				t.Fatalf("batch after truncation = %q, %v", b, err)
			}
		})
	}
}

// appendRaw appends bytes to a ledger file behind the ledger's back, the
// way a crash leaves them.
func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// fileRecord is a batch as a FileLedger stores it: an 8-byte length, then
// the payload.
func fileRecord(payload []byte) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(len(payload)))
	return append(b, payload...)
}

// TestFileLedgerKeepsCorruptInnerBatch: an invalid batch before the tail is
// not a torn write — it stays indexed and replay fails loudly instead of
// skipping it.
func TestFileLedgerKeepsCorruptInnerBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(frame("first")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	appendRaw(t, path, fileRecord(make([]byte, 64)))
	appendRaw(t, path, fileRecord(frame("last")))

	l2, err := OpenFileLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n, _ := l2.NumBatches(); n != 3 {
		t.Fatalf("reopened ledger has %d batches, want 3", n)
	}
	if err := Replay(l2, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over a corrupt inner batch = %v, want ErrCorrupt", err)
	}
}

// TestWriterRefusesEmptyEntry: the writer never frames a zero-length entry,
// and DecodeBatch treats one (what zero-filled bytes decode as) as corrupt.
func TestWriterRefusesEmptyEntry(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 64, BatchDelay: time.Millisecond}, 1)
	defer w.Close()
	if err := w.Append(nil); !errors.Is(err, ErrEmptyEntry) {
		t.Fatalf("Append(nil) = %v, want ErrEmptyEntry", err)
	}
	if err := w.AppendAll([]byte("x"), []byte{}); !errors.Is(err, ErrEmptyEntry) {
		t.Fatalf("AppendAll with an empty entry = %v, want ErrEmptyEntry", err)
	}
	w.Flush()
	if n, _ := ledgers[0].NumBatches(); n != 0 {
		t.Fatalf("refused entries reached the ledger: %d batches", n)
	}
	if _, err := DecodeBatch(make([]byte, 64)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBatch(zeros) = %v, want ErrCorrupt", err)
	}
}

func TestDiscardLedger(t *testing.T) {
	var d DiscardLedger
	if _, err := d.AppendBatch([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumBatches(); n != 0 {
		t.Fatal("discard ledger retained a batch")
	}
	if _, err := d.ReadBatch(0); err == nil {
		t.Fatal("ReadBatch must fail on discard ledger")
	}
}

func TestThroughputWithBatching(t *testing.T) {
	// Appendix A: with batching, a slow ledger (5ms/write) must sustain
	// far more than 200 entries/sec. Sanity-check the group commit: 200
	// entries against a 2ms-latency ledger should take ~ tens of
	// batches, not 200 round trips.
	l := NewMemLedger()
	l.Latency = 2 * time.Millisecond
	w, err := NewWriter(Config{BatchBytes: 1024, BatchDelay: 5 * time.Millisecond}, l)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry := make([]byte, 100)
			if err := w.Append(entry); err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	w.Close()
	if elapsed > n*2*time.Millisecond/4 {
		t.Fatalf("batching ineffective: %d appends took %v", n, elapsed)
	}
	batches, _ := l.NumBatches()
	if batches >= n {
		t.Fatalf("no batching happened: %d batches for %d entries", batches, n)
	}
}

func TestAppendAllGroupDurable(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{BatchBytes: 1 << 20, BatchDelay: time.Millisecond}, 3)
	defer w.Close()
	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, []byte(fmt.Sprintf("group-entry-%d", i)))
	}
	if err := w.AppendAll(want...); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := Replay(ledgers[0], func(e []byte) error {
		got = append(got, append([]byte(nil), e...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendAllEmptyAndClosed(t *testing.T) {
	w, _ := newTestWriter(t, DefaultConfig(), 1)
	if err := w.AppendAll(); err != nil {
		t.Fatalf("empty AppendAll: %v", err)
	}
	w.Close()
	if err := w.AppendAll([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendAll after close = %v, want ErrClosed", err)
	}
}

func TestAppendAllSizeTrigger(t *testing.T) {
	// A group whose combined size crosses BatchBytes must flush without
	// waiting for the delay timer.
	w, ledgers := newTestWriter(t, Config{BatchBytes: 64, BatchDelay: time.Hour}, 1)
	defer w.Close()
	entries := [][]byte{make([]byte, 40), make([]byte, 40)}
	done := make(chan error, 1)
	go func() { done <- w.AppendAll(entries...) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendAll did not flush on the size trigger")
	}
	if n, _ := ledgers[0].NumBatches(); n != 1 {
		t.Fatalf("got %d batches, want 1", n)
	}
}
