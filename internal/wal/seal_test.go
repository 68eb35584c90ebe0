package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func sealTestWriter(t *testing.T, ledgers ...Ledger) *Writer {
	t.Helper()
	w, err := NewWriter(Config{BatchBytes: 64, BatchDelay: time.Millisecond}, ledgers...)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	return w
}

// TestSealFencesWriter: once any replica is sealed, the writer fails the
// in-flight append with ErrFenced and latches permanently.
func TestSealFencesWriter(t *testing.T) {
	l := NewMemLedger()
	w := sealTestWriter(t, l)
	if err := w.Append([]byte("before")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := Seal(l); err != nil {
		t.Fatalf("seal: %v", err)
	}
	err := w.Append([]byte("after"))
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("append after seal = %v, want ErrFenced", err)
	}
	if !w.Fenced() {
		t.Fatalf("writer not latched after observing the seal")
	}
	// Latched: even AppendAll fails fast without touching the ledger.
	if err := w.AppendAll([]byte("x"), []byte("y")); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendAll after fence = %v, want ErrFenced", err)
	}
	n, _ := l.NumBatches()
	if n != 1 {
		t.Fatalf("sealed ledger grew to %d batches", n)
	}
	if err := Seal(DiscardLedger{}); err == nil {
		t.Fatalf("sealing an unsealable ledger succeeded")
	}
}

// TestFileLedgerSealIsDurableAndCrossProcess: the seal marker persists
// across re-opens, and a second read-write handle (standing in for the
// old primary process) observes it on its next append.
func TestFileLedgerSealIsDurableAndCrossProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	primary, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer primary.Close()
	if _, err := primary.AppendBatch(frame("batch-0")); err != nil {
		t.Fatalf("append: %v", err)
	}

	// The standby opens its own handle and seals.
	sealer, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("open sealer: %v", err)
	}
	defer sealer.Close()
	if err := sealer.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}

	// The primary's handle knows nothing of the seal — its next append
	// must discover the marker and fail.
	if _, err := primary.AppendBatch(frame("batch-1")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append through fenced handle = %v, want ErrSealed", err)
	}
	if !primary.Sealed() {
		t.Fatalf("fenced handle did not latch")
	}

	// Reopening (recovery) sees the seal and the pre-seal batches.
	reopened, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if !reopened.Sealed() {
		t.Fatalf("seal marker not durable across reopen")
	}
	if n, _ := reopened.NumBatches(); n != 1 {
		t.Fatalf("reopened ledger has %d batches, want 1", n)
	}
	if b, err := reopened.ReadBatch(0); err != nil || !bytes.Equal(b, frame("batch-0")) {
		t.Fatalf("batch 0 = %q, %v", b, err)
	}
}

// TestTailerFollowsFileLedgerReader: a read-only ledger refreshes as a
// separate handle appends, and the Tailer surfaces each entry exactly
// once, in order.
func TestTailerFollowsFileLedgerReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ledger, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer ledger.Close()
	w := sealTestWriter(t, ledger)

	reader, err := OpenFileLedgerReader(path)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	defer reader.Close()
	tail := NewTailer(reader)

	if _, ok, err := tail.Next(); ok || err != nil {
		t.Fatalf("empty tail: ok=%v err=%v", ok, err)
	}
	var want []string
	for i := 0; i < 5; i++ {
		e := string(rune('a' + i))
		want = append(want, e)
		if err := w.Append([]byte(e)); err != nil {
			t.Fatalf("append: %v", err)
		}
		// The reader discovers the new batch via Refresh inside Next.
		got, ok, err := tail.Next()
		if err != nil || !ok || string(got) != e {
			t.Fatalf("tail entry %d = %q ok=%v err=%v, want %q", i, got, ok, err, e)
		}
	}
	if _, ok, _ := tail.Next(); ok {
		t.Fatalf("tail produced an entry beyond the log end")
	}
	// ReplayRange from the middle reproduces the suffix.
	var suffix []string
	if err := ReplayRange(ledger, 2, 0, func(e []byte) error {
		suffix = append(suffix, string(e))
		return nil
	}); err != nil {
		t.Fatalf("replay range: %v", err)
	}
	if len(suffix) != 3 || suffix[0] != want[2] {
		t.Fatalf("suffix = %v, want %v", suffix, want[2:])
	}
}
