package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ProgramSnapshot is one program's full durable state at a checkpoint: the
// serialized execution tree (exectree.Encode, which Decode restores
// bit-for-bit including the incremental frontier index), the versioned fix
// set, standing proofs, failure-signature aggregation, ingestion counters,
// collective known-good inputs, the coordinated-sampling fragment buffer,
// and the exactly-once session dedup table as of the checkpoint.
//
// Trace payloads (failure samples, coordinated fragments) are stored in the
// wire codec (trace.Encode); fixes and proofs in their JSON codecs. All of
// them are post-privacy: the snapshot persists what pods shipped, never
// more (see the package privacy invariant).
// A snapshot is either *full* (Tree set: the complete exectree.Encode
// serialization) or a *delta segment* (TreeDelta set: exectree.EncodeDelta
// bytes holding only the nodes changed since the previous checkpoint, with
// every non-tree field still carried in full — they are small relative to
// the tree and replacing them wholesale keeps chain merging trivial).
// Recovery overlays delta segments over the base in generation order
// (exectree.DecodeChain) and takes the non-tree fields from the newest
// segment.
type ProgramSnapshot struct {
	ProgramID string `json:"programId"`
	// Tree is the exectree.Encode serialization (full snapshots only).
	Tree []byte `json:"tree,omitempty"`
	// TreeDelta is the exectree.EncodeDelta serialization (delta segments
	// only): the nodes changed since the previous checkpoint.
	TreeDelta []byte `json:"treeDelta,omitempty"`
	// Fixes are fix JSON documents in ID order.
	Fixes [][]byte `json:"fixes,omitempty"`
	Epoch int      `json:"epoch"`
	// Proofs are proof JSON documents (standing and superseded; readers
	// filter by epoch).
	Proofs [][]byte `json:"proofs,omitempty"`
	// Failures is the per-signature aggregation state.
	Failures []FailureState `json:"failures,omitempty"`

	Ingested      int64 `json:"ingested"`
	Reconstructed int64 `json:"reconstructed"`
	Narrowed      int64 `json:"narrowed"`

	// KnownGood are raw inputs observed to succeed (present only when pods
	// shipped at PrivacyRaw).
	KnownGood [][]int64 `json:"knownGood,omitempty"`
	// Coordinated buffers incomplete coordinated-sampling families:
	// family key -> encoded fragment traces.
	Coordinated map[string][][]byte `json:"coordinated,omitempty"`

	// Sessions is this program's exactly-once dedup table (session ->
	// contiguous applied-sequence base for the frames that session sent
	// about the program) as of this checkpoint; SessionsAhead carries any
	// out-of-order applied marks above a session's base. Recovery
	// union-merges both with the program's replayed batch ops. Snapshots
	// written before the table was per program carry every program's
	// sessions; merging that superset into one program is safe, since it
	// only holds seqs some frame really applied.
	Sessions      map[string]uint64   `json:"sessions,omitempty"`
	SessionsAhead map[string][]uint64 `json:"sessionsAhead,omitempty"`
}

// FailureState is the serialized form of one failure signature's fleet-wide
// aggregation — the codec for hive.FailureRecord plus the bookkeeping the
// exported snapshot type omits (distinct reporting pods).
type FailureState struct {
	Signature string `json:"signature"`
	Outcome   uint8  `json:"outcome"`
	Count     int64  `json:"count"`
	// Pods lists the distinct reporting pod IDs.
	Pods []string `json:"pods,omitempty"`
	// Sample is one representative trace (wire codec).
	Sample      []byte `json:"sample,omitempty"`
	Fixed       bool   `json:"fixed,omitempty"`
	InRepairLab bool   `json:"inRepairLab,omitempty"`
}

// EncodeSnapshot serializes a snapshot into the CRC-framed byte form —
// the same bytes writeSnapshotFile persists. It is the ship-a-program
// codec for re-homing: an exported program travels between hive processes
// as exactly these bytes and DecodeSnapshot validates them on arrival.
func EncodeSnapshot(snap *ProgramSnapshot) ([]byte, error) {
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("journal: encode snapshot: %w", err)
	}
	buf := []byte(snapMagic)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(buf, crc[:]...), nil
}

// DecodeSnapshot parses and validates EncodeSnapshot bytes.
func DecodeSnapshot(data []byte) (*ProgramSnapshot, error) {
	return decodeSnapshot(data, "snapshot bytes")
}

// decodeSnapshot validates the CRC frame and parses the body; where names
// the source for error messages.
func decodeSnapshot(data []byte, where string) (*ProgramSnapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic in %s", ErrCorrupt, where)
	}
	rest := data[len(snapMagic):]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || uint64(len(rest)-sz) < n+4 {
		return nil, fmt.Errorf("%w: truncated snapshot %s", ErrCorrupt, where)
	}
	body := rest[sz : sz+int(n)]
	want := binary.LittleEndian.Uint32(rest[sz+int(n) : sz+int(n)+4])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch in %s", ErrCorrupt, where)
	}
	var snap ProgramSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot json: %v", ErrCorrupt, err)
	}
	return &snap, nil
}

// writeSnapshotFile persists a snapshot atomically: temp file, fsync,
// rename.
func writeSnapshotFile(vfs FS, path string, snap *ProgramSnapshot) error {
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(vfs, path, buf); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	return nil
}

// writeFileAtomic lands data at path via the temp-file + fsync + rename
// dance, so a crash at any point leaves either the old file or the new one —
// never a torn mix. Snapshots, tether markers, and the archive tier's
// local object store all rotate through it.
func writeFileAtomic(vfs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := vfs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = vfs.Remove(tmp)
		return fmt.Errorf("write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = vfs.Remove(tmp)
		return fmt.Errorf("sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		_ = vfs.Remove(tmp)
		return fmt.Errorf("close %s: %w", filepath.Base(path), err)
	}
	if err := vfs.Rename(tmp, path); err != nil {
		_ = vfs.Remove(tmp)
		return fmt.Errorf("install %s: %w", filepath.Base(path), err)
	}
	return nil
}

// WriteFileAtomic is writeFileAtomic for packages layered over the journal
// (the archive tier's local-dir object store): write-temp, fsync, rename.
func WriteFileAtomic(vfs FS, path string, data []byte) error {
	if vfs == nil {
		vfs = OSFS()
	}
	return writeFileAtomic(vfs, path, data)
}

// readSnapshotFile loads and validates a snapshot file.
func readSnapshotFile(vfs FS, path string) (*ProgramSnapshot, error) {
	data, err := vfs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, path)
}
