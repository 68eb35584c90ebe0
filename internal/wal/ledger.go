package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// MemLedger is an in-memory Ledger standing in for a remote bookie. A
// configurable append latency models the network+fsync round trip, and a
// fail hook supports fault-injection tests.
type MemLedger struct {
	mu        sync.Mutex
	batches   [][]byte
	sealed    bool
	sealEpoch uint64

	// Latency is slept on every AppendBatch, modelling the remote write.
	// Concurrent appends overlap their sleeps, so Latency alone delays acks
	// without bounding throughput (pipelined group commits).
	Latency time.Duration
	// Bandwidth, when > 0, bounds append throughput to this many payload
	// bytes per second: concurrent appends serialize on the ledger's write
	// pipe and each batch occupies it for len/Bandwidth. This models the
	// bounded sequential-write bandwidth of a real ledger device — the
	// per-partition resource that capacity experiments contend for.
	Bandwidth int64
	pipeMu    sync.Mutex
	// FailAppend, when non-nil, is consulted before each append; a
	// non-nil return fails the append (fault injection).
	FailAppend func() error
}

// NewMemLedger returns an empty in-memory ledger.
func NewMemLedger() *MemLedger { return &MemLedger{} }

// AppendBatch stores one batch.
func (m *MemLedger) AppendBatch(batch []byte) (int, error) {
	if m.FailAppend != nil {
		if err := m.FailAppend(); err != nil {
			return 0, err
		}
	}
	if m.Bandwidth > 0 {
		d := time.Duration(int64(len(batch)) * int64(time.Second) / m.Bandwidth)
		m.pipeMu.Lock()
		time.Sleep(d)
		m.pipeMu.Unlock()
	}
	if m.Latency > 0 {
		time.Sleep(m.Latency)
	}
	cp := make([]byte, len(batch))
	copy(cp, batch)
	m.mu.Lock()
	if m.sealed {
		m.mu.Unlock()
		return 0, ErrSealed
	}
	m.batches = append(m.batches, cp)
	n := len(m.batches) - 1
	m.mu.Unlock()
	return n, nil
}

// Seal fences the ledger: once Seal returns, no append can store a batch,
// so a reader that has consumed every stored batch has seen the final log.
func (m *MemLedger) Seal() error {
	m.mu.Lock()
	m.sealed = true
	m.mu.Unlock()
	return nil
}

// SealEpoch fences the ledger with an epoch-numbered seal. The ledger
// grants each epoch at most once: a proposal at or below the current seal
// epoch fails with ErrEpochSuperseded, which is what serializes dueling
// election candidates (only one can newly seal a quorum at a given epoch).
// A strictly higher proposal upgrades the seal, so a later candidate can
// recover from a winner that died before installing its epoch.
func (m *MemLedger) SealEpoch(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed && epoch <= m.sealEpoch {
		return fmt.Errorf("%w: sealed at epoch %d, proposed %d", ErrEpochSuperseded, m.sealEpoch, epoch)
	}
	m.sealed = true
	m.sealEpoch = epoch
	return nil
}

// SealedEpoch returns the current seal's epoch (0 = unsealed or legacy).
func (m *MemLedger) SealedEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sealEpoch
}

// Sealed reports whether the ledger has been fenced.
func (m *MemLedger) Sealed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sealed
}

// NumBatches returns the number of stored batches.
func (m *MemLedger) NumBatches() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.batches), nil
}

// ReadBatch returns the i-th batch.
func (m *MemLedger) ReadBatch(i int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.batches) {
		return nil, fmt.Errorf("wal: batch %d out of range [0,%d)", i, len(m.batches))
	}
	return m.batches[i], nil
}

// Corrupt flips a byte of the i-th batch (test helper for recovery paths).
func (m *MemLedger) Corrupt(i int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.batches) {
		return errors.New("wal: no such batch")
	}
	if len(m.batches[i]) == 0 {
		return errors.New("wal: empty batch")
	}
	b := make([]byte, len(m.batches[i]))
	copy(b, m.batches[i])
	b[len(b)/2] ^= 0xff
	m.batches[i] = b
	return nil
}

// FileLedger is a Ledger backed by a single append-only file, for durable
// single-machine deployments of cmd/oracle-server. Batches are stored as
// [8-byte length][payload] records; a length of sealMarker fences the file.
type FileLedger struct {
	mu        sync.Mutex
	f         *os.File
	offsets   []int64 // start offset of each batch
	sizes     []int64
	end       int64
	sync      bool
	sealed    bool
	sealOff   int64  // offset of the seal marker, valid when sealed
	sealEpoch uint64 // epoch word following the marker (0 = legacy seal)
	reader    bool   // opened read-only: never truncate, Refresh allowed
	wbuf      []byte // header+payload staging so each append is one WriteAt
}

// sealMarker is the batch-length value that marks a sealed file: no real
// batch can be that large, and a writer that finds it at its append offset
// knows a successor has fenced the log. An epoch-numbered seal follows the
// marker with one more 8-byte word holding the epoch; a legacy seal ends
// at the marker and reads as epoch 0.
const sealMarker = ^uint64(0)

// flockEx/flockSh/funlock wrap the advisory file lock that makes the
// cross-process fence atomic: AppendBatch's check-then-write and Seal's
// rescan-then-mark each run under the exclusive lock, so a fencing standby
// can never clobber a batch the primary is mid-appending, and the primary
// can never overwrite a freshly written seal marker. Locks are held only
// for the duration of one append, seal, or scan.
func flockEx(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_EX) }
func flockSh(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_SH) }
func funlock(f *os.File)       { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }

// OpenFileLedger opens (creating if needed) a file-backed ledger. When
// syncEveryBatch is set, each batch is fsynced, giving real durability at
// real disk latency. The open scan runs under the exclusive file lock:
// a torn tail can then only come from a crashed writer (a live writer
// holds the lock across each append), so truncating it is safe.
func OpenFileLedger(path string, syncEveryBatch bool) (*FileLedger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &FileLedger{f: f, sync: syncEveryBatch}
	if err := flockEx(f); err != nil {
		f.Close()
		return nil, err
	}
	err = l.scan()
	funlock(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenFileLedgerReader opens an existing ledger file read-only, for a
// standby tailing a primary's WAL on the same machine. The reader never
// truncates torn tails (the primary may still be mid-write) and supports
// Refresh, so a Tailer over it observes batches as the primary appends
// them.
func OpenFileLedgerReader(path string) (*FileLedger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	l := &FileLedger{f: f, reader: true}
	if err := flockSh(f); err != nil {
		f.Close()
		return nil, err
	}
	err = l.scan()
	funlock(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan indexes batches from the current end of the index onward. Writers
// truncate a torn tail write; readers leave it for a later Refresh (the
// writer may simply not have finished it yet).
//
// A tail is torn either short (the header promises more bytes than the
// file holds) or in place: a crash can persist the header and the file's
// size extension but not the body, which then reads back as zeros. A
// writer therefore decodes the final batch it indexed and drops it when
// it is invalid — it was never acked, because acks wait for the batch's
// fsync. An invalid batch before the tail is not a torn write; it stays
// indexed and fails recovery loudly.
func (l *FileLedger) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	off := l.end
	first := len(l.offsets)
	var hdr [8]byte
	for off+8 <= size {
		if _, err := l.f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		n := binary.BigEndian.Uint64(hdr[:])
		if n == sealMarker {
			l.sealed = true
			l.sealOff = off
			off += 8
			if off+8 <= size {
				var eb [8]byte
				if _, err := l.f.ReadAt(eb[:], off); err != nil {
					return err
				}
				l.sealEpoch = binary.BigEndian.Uint64(eb[:])
				off += 8
			}
			break
		}
		if off+8+int64(n) > size {
			break // torn write at the tail
		}
		l.offsets = append(l.offsets, off+8)
		l.sizes = append(l.sizes, int64(n))
		off += 8 + int64(n)
	}
	if l.reader {
		l.end = off
		return nil
	}
	if last := len(l.offsets) - 1; !l.sealed && last >= first {
		buf := make([]byte, l.sizes[last])
		if _, err := l.f.ReadAt(buf, l.offsets[last]); err != nil {
			return err
		}
		if _, err := DecodeBatch(buf); err != nil {
			off = l.offsets[last] - 8
			l.offsets, l.sizes = l.offsets[:last], l.sizes[:last]
		}
	}
	l.end = off
	return l.f.Truncate(off)
}

// Refresh re-indexes batches appended since the last scan, letting a
// read-only ledger follow a file another process is writing. The shared
// lock excludes a concurrent append or seal, so the scan never observes a
// half-written batch.
func (l *FileLedger) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	if err := flockSh(l.f); err != nil {
		return err
	}
	defer funlock(l.f)
	return l.scan()
}

// AppendBatch appends one batch record. Under the exclusive file lock it
// re-reads the header at the append offset: a seal marker placed there by
// another process (a promoting standby fencing this primary) fails the
// append, and the lock guarantees the marker check and the write are one
// atomic step — a seal can never be overwritten, and a batch can never be
// clobbered by a concurrent seal.
func (l *FileLedger) AppendBatch(batch []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, ErrSealed
	}
	if err := flockEx(l.f); err != nil {
		return 0, err
	}
	defer funlock(l.f)
	var hdr [8]byte
	if _, err := l.f.ReadAt(hdr[:], l.end); err == nil {
		if binary.BigEndian.Uint64(hdr[:]) == sealMarker {
			l.sealed = true
			return 0, ErrSealed
		}
	}
	// Stage header + payload into the reusable write buffer so the record
	// lands in one WriteAt (one syscall, and no window where a crash can
	// leave a header whose payload write never started).
	l.wbuf = l.wbuf[:0]
	binary.BigEndian.PutUint64(hdr[:], uint64(len(batch)))
	l.wbuf = append(l.wbuf, hdr[:]...)
	l.wbuf = append(l.wbuf, batch...)
	if _, err := l.f.WriteAt(l.wbuf, l.end); err != nil {
		return 0, err
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
	}
	l.offsets = append(l.offsets, l.end+8)
	l.sizes = append(l.sizes, int64(len(batch)))
	l.end += 8 + int64(len(batch))
	return len(l.offsets) - 1, nil
}

// Seal durably fences the file: a seal marker is written at the end and
// fsynced, so both this process and any other process appending to the
// same file observe the fence. Under the exclusive file lock the seal
// first rescans to the file's true end — batches another process appended
// (and possibly acked) since this handle's last scan are indexed, never
// clobbered — and only then writes the marker, which the lock orders
// strictly after any in-flight append.
func (l *FileLedger) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	if err := flockEx(l.f); err != nil {
		return err
	}
	defer funlock(l.f)
	if err := l.scan(); err != nil {
		return err
	}
	if l.sealed {
		// The rescan found another sealer's marker; the fence holds.
		return nil
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], sealMarker)
	if _, err := l.f.WriteAt(hdr[:], l.end); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.sealOff = l.end
	l.end += 8
	l.sealed = true
	return nil
}

// SealEpoch durably fences the file with an epoch-numbered seal record
// ([marker][epoch], fsynced). Like Seal, it runs under the exclusive file
// lock and rescans first, so it composes with concurrent appends and
// seals from other processes. The ledger grants each epoch at most once:
// a proposal at or below the current seal epoch — whether placed by this
// process or read back from a marker another candidate wrote — fails with
// ErrEpochSuperseded, and a strictly higher proposal upgrades the epoch
// word in place.
func (l *FileLedger) SealEpoch(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := flockEx(l.f); err != nil {
		return err
	}
	defer funlock(l.f)
	if !l.sealed {
		if err := l.scan(); err != nil {
			return err
		}
	} else if err := l.rereadSealEpoch(); err != nil {
		// Another handle may have upgraded the epoch word since our scan.
		return err
	}
	if l.sealed {
		if epoch <= l.sealEpoch {
			return fmt.Errorf("%w: sealed at epoch %d, proposed %d", ErrEpochSuperseded, l.sealEpoch, epoch)
		}
		var eb [8]byte
		binary.BigEndian.PutUint64(eb[:], epoch)
		if _, err := l.f.WriteAt(eb[:], l.sealOff+8); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if l.sealOff+16 > l.end {
			l.end = l.sealOff + 16
		}
		l.sealEpoch = epoch
		return nil
	}
	var rec [16]byte
	binary.BigEndian.PutUint64(rec[0:8], sealMarker)
	binary.BigEndian.PutUint64(rec[8:16], epoch)
	if _, err := l.f.WriteAt(rec[:], l.end); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.sealOff = l.end
	l.end += 16
	l.sealed = true
	l.sealEpoch = epoch
	return nil
}

// rereadSealEpoch refreshes l.sealEpoch from the epoch word on disk.
// Caller holds l.mu and the file lock, and l.sealed is true.
func (l *FileLedger) rereadSealEpoch() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	if l.sealOff+16 <= info.Size() {
		var eb [8]byte
		if _, err := l.f.ReadAt(eb[:], l.sealOff+8); err != nil {
			return err
		}
		if e := binary.BigEndian.Uint64(eb[:]); e > l.sealEpoch {
			l.sealEpoch = e
		}
	}
	return nil
}

// SealedEpoch returns the current seal's epoch (0 = unsealed or legacy).
func (l *FileLedger) SealedEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealEpoch
}

// Sealed reports whether the ledger has been fenced.
func (l *FileLedger) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// NumBatches returns the number of stored batches.
func (l *FileLedger) NumBatches() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.offsets), nil
}

// ReadBatch returns the i-th batch.
func (l *FileLedger) ReadBatch(i int) ([]byte, error) {
	l.mu.Lock()
	if i < 0 || i >= len(l.offsets) {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: batch %d out of range [0,%d)", i, len(l.offsets))
	}
	off, n := l.offsets[i], l.sizes[i]
	l.mu.Unlock()
	buf := make([]byte, n)
	if _, err := l.f.ReadAt(buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// Close closes the underlying file.
func (l *FileLedger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// DiscardLedger accepts and forgets everything; used by benchmarks that
// isolate CPU cost from durability cost.
type DiscardLedger struct{}

// AppendBatch discards the batch.
func (DiscardLedger) AppendBatch(batch []byte) (int, error) { return 0, nil }

// NumBatches reports an empty ledger.
func (DiscardLedger) NumBatches() (int, error) { return 0, nil }

// ReadBatch always fails: nothing is retained.
func (DiscardLedger) ReadBatch(i int) ([]byte, error) {
	return nil, errors.New("wal: discard ledger retains no batches")
}
