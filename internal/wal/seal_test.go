package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
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
	if err := SealEpoch(l, 1); err != nil {
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
	if err := SealEpoch(DiscardLedger{}, 1); err == nil {
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
	if err := sealer.SealEpoch(1); err != nil {
		t.Fatalf("seal: %v", err)
	}

	// The primary's handle knows nothing of the seal — its next append
	// must discover the marker and fail.
	if _, err := primary.AppendBatch(frame("batch-1")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append through fenced handle = %v, want ErrSealed", err)
	}
	if _, err := primary.AppendBatch(frame("batch-2")); !errors.Is(err, ErrSealed) {
		t.Fatalf("second append through fenced handle = %v, want ErrSealed", err)
	}
	// The fenced handle arbitrates against the successor's seal too.
	if err := primary.SealEpoch(1); !errors.Is(err, ErrEpochSuperseded) {
		t.Fatalf("same-epoch seal through fenced handle = %v, want ErrEpochSuperseded", err)
	}

	// Reopening (recovery) sees the seal and the pre-seal batches.
	reopened, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if got := reopened.SealedEpoch(); got != 1 {
		t.Fatalf("reopened SealedEpoch = %d, want 1: seal not durable across reopen", got)
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

// TestTailerTornTailFencedAway: a read-only tailer stuck on a zero-filled
// final batch reports ErrTornTail (an ErrCorrupt); once a writer-mode
// handle has truncated that batch and sealed the file, the same tailer
// re-indexes and reaches the end cleanly.
func TestTailerTornTailFencedAway(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := w.AppendBatch(frame("acked")); err != nil {
		t.Fatalf("append: %v", err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(binary.BigEndian.AppendUint64(nil, 64), make([]byte, 64)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reader, err := OpenFileLedgerReader(path)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	defer reader.Close()
	tail := NewTailer(reader)
	if e, ok, err := tail.Next(); !ok || err != nil || string(e) != "acked" {
		t.Fatalf("first entry = %q ok=%v err=%v", e, ok, err)
	}
	if _, _, err := tail.Next(); !errors.Is(err, ErrTornTail) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn final batch: err = %v, want ErrTornTail and ErrCorrupt", err)
	}

	fence, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatalf("open fence: %v", err)
	}
	defer fence.Close()
	if err := fence.SealEpoch(2); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if _, ok, err := tail.Next(); ok || err != nil {
		t.Fatalf("after the fence: ok=%v err=%v, want a clean end", ok, err)
	}
	if got := reader.SealedEpoch(); got != 2 {
		t.Fatalf("reader SealedEpoch = %d, want 2", got)
	}
}
