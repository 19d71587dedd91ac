// Package journal is the hive's persistence subsystem: an append-only
// write-ahead journal of ingest operations plus periodic snapshots, giving
// the collective knowledge the paper's whole premise depends on — execution
// trees, failure signatures, fixes, and proofs grow monotonically as the
// fleet runs — a life beyond one hive process.
//
// # Durability model
//
// State is persisted per program: every program has its own journal file
// (write-ahead log of replayable operations, see Op) and its own snapshot
// chain. A mutation is appended to the program's journal *before* it is
// applied to the in-memory hive, so an acknowledged submission is always
// either in a snapshot or in the journal suffix after it. Recovery loads the
// newest snapshot chain and replays the journal suffix through the same
// apply path live ingestion uses; snapshot + suffix reconstructs the hive
// exactly — including the execution tree's incremental frontier index,
// which exectree.Decode rebuilds.
//
// # Snapshot chains
//
// A checkpoint is either *full* (Checkpoint: the program's complete state,
// O(tree)) or *incremental* (CheckpointDelta: only the state that changed
// since the previous checkpoint, O(changes)). Each checkpoint bumps the
// program's generation and rotates its journal, so the on-disk state is
// always one base snapshot, zero or more delta segments in generation
// order, and the current journal:
//
//	snap-<key>-<B>.snap  delta-<key>-<B+1>.snap ... delta-<key>-<T>.snap  wal-<key>-<T>.log
//
// Recovery merges base + deltas in order (LoadChain), then replays the
// journal. A full checkpoint compacts the chain back to a single base and
// deletes everything older. Snapshots rotate atomically: the new file is
// written to a temp name, fsynced, and renamed before the journal is
// rotated and superseded generations are deleted, so a crash at any point
// leaves a recoverable chain on disk. Journal records are CRC-framed; a
// torn tail from a crash mid-append is detected and truncated on recovery —
// the torn record was never applied (append happens before apply) and never
// acknowledged.
//
// # Group commit
//
// By default every Append is its own write (+fsync) syscall. With group
// commit enabled (Options.GroupWindow / Options.MaxBatch) a per-program
// committer goroutine coalesces concurrent appends into one buffered write
// and one fsync; callers still block until their own record is durable, so
// the write-ahead contract is unchanged — only the syscall count per record
// drops. This is the aggregation-node batching move the sensor-network
// aggregation literature keeps rediscovering: the aggregator is the
// throughput bottleneck, and amortizing its per-message cost is what
// restores scale.
//
// By default writes go straight to the operating system without fsync:
// state survives process death (kill -9, panics, OOM) but a machine-level
// crash can lose the last instants of un-synced journal. Options.Fsync
// forces an fsync per flushed group for power-failure durability.
//
// # Privacy invariant
//
// The journal stores trace batches exactly as they were submitted — *after*
// the pod-side privacy filter ran. Raw end-user inputs reach the journal
// only when a pod explicitly ships at trace.PrivacyRaw; at the hashed,
// bucketed, and opaque levels the durable state contains only the filtered
// forms. Persisted aggregates are exactly where privacy-preserving schemes
// historically leak, so the journal deliberately never re-derives or widens
// what the pods chose to disclose.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrCorrupt is wrapped by malformed journal or snapshot data.
var ErrCorrupt = errors.New("journal: corrupt")

// Options configures a Store.
type Options struct {
	// Fsync forces an fsync after every journal flush (one per append, or
	// one per coalesced group with group commit enabled). Off by default:
	// appends then survive process death but not power loss.
	Fsync bool

	// GroupWindow is the maximum time the group committer waits after a
	// record arrives for more records to coalesce before flushing. Zero
	// flushes as soon as the committer is free — concurrent appends still
	// coalesce naturally while a previous flush (typically its fsync) is in
	// flight, which is the sweet spot on fast disks.
	GroupWindow time.Duration

	// MaxBatch caps the records flushed as one group; a full group flushes
	// immediately, without waiting out GroupWindow. Group commit is enabled
	// when MaxBatch > 1 or GroupWindow > 0; MaxBatch defaults to 256 when
	// enabled and left zero.
	MaxBatch int

	// CommitWorkers caps the store-wide committer pool (default 32).
	// Committers are shared across programs: a worker pops the next
	// program with pending records, flushes one group for it, and moves
	// on, so a fleet of thousands of mostly-cold programs costs at most
	// CommitWorkers goroutines — not one per program — while a few hot
	// programs still get concurrent (overlapping) fsyncs up to the cap.
	CommitWorkers int

	// FS routes every file operation the store performs (journals,
	// snapshots, tether markers). Nil uses the os package directly; tests
	// inject internal/faultfs here to exercise the durability layers under
	// torn writes, ENOSPC, failed fsyncs, and crash points.
	FS FS
}

// grouped reports whether the options enable the group committer.
func (o Options) grouped() bool { return o.MaxBatch > 1 || o.GroupWindow > 0 }

// Store manages the snapshot and journal files for many programs inside one
// data directory. All methods are safe for concurrent use; operations on
// distinct programs never contend.
type Store struct {
	dir        string
	fs         FS
	fsync      bool
	window     time.Duration
	maxBatch   int
	grouped    bool
	maxWorkers int

	mu    sync.Mutex
	progs map[string]*progLog // program ID -> log state
	byKey map[string]string   // filename key -> program ID
	// fetcher, when set, rehydrates a pruned (archived) snapshot chain on
	// demand: LoadChain on a tethered program fetches the missing base and
	// delta files from the archive tier and writes them back locally.
	fetcher func(programID string) (*ChainExport, error)

	// Committer pool state: programs with pending records queue here, and
	// up to maxWorkers committer goroutines (spawned on demand, exiting
	// when the queue drains) pop them round-robin. Guarded by commitMu,
	// never held across I/O.
	commitMu    sync.Mutex
	commitQueue []*progLog
	workers     int
}

// progLog is one program's on-disk state: the snapshot chain (base
// generation plus delta generations), the current journal generation, and
// the group-commit queue.
type progLog struct {
	mu      sync.Mutex
	id      string
	key     string
	gen     uint64 // current journal generation (= newest checkpoint gen)
	baseGen uint64 // newest full-snapshot generation
	hasBase bool
	deltas  []uint64 // delta generations in (baseGen, gen], ascending
	f       File     // current journal, opened lazily for append
	size    int64    // current journal length (the truncate point after a torn write)
	wbuf    []byte   // reusable group write buffer
	// broken latches a torn write that could not be truncated away: further
	// appends would land beyond the tear and be silently discarded by
	// recovery's truncate-at-first-bad-record, so they are refused instead.
	broken bool
	// appends counts records written to the current journal generation
	// (including any found on disk at scan/replay time); checkpoints reset
	// it. The hive uses it to skip checkpoints for quiescent programs.
	appends uint64
	// tethered marks a chain whose base/delta files were pruned to the
	// archive tier (a tether marker stands in for them on disk); loads
	// rehydrate through the store's fetcher before reading.
	tethered bool
	// replayed records that Replay ran (or that the program is fresh), so
	// appends cannot clobber an un-replayed torn tail.
	replayed bool
	// scratch is the op-payload encode buffer, owned by whoever holds the
	// flush (pl.mu for direct appends; the flushing claim for committers).
	scratch []byte

	// Group-commit queue: pending records awaiting a committer. Guarded by
	// pendMu (never held across I/O). queued and flushing are the store
	// committer pool's claims on this program, guarded by the store's
	// commitMu: queued means the program sits in the commit queue, flushing
	// means a worker is mid-flush (a program is never flushed by two
	// workers at once, so its records land in arrival order).
	pendMu  sync.Mutex
	pending []*pendingAppend

	queued   bool
	flushing bool
}

// pendingAppend is one enqueued operation and its caller's completion
// channel. The op is encoded by the committer, straight into the group
// buffer's scratch — the caller's Append blocks until delivery, so the op
// stays immutable for exactly as long as the committer needs it.
type pendingAppend struct {
	op   *Op
	done chan error
}

// donePool recycles completion channels (one send, one receive per use).
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

const (
	walMagic  = "SBWAL1\n"
	snapMagic = "SBSNAP1\n"
)

// Open opens (creating if needed) a data directory and indexes the
// snapshot/journal files already in it.
func Open(dir string, opts Options) (*Store, error) {
	vfs := opts.FS
	if vfs == nil {
		vfs = OSFS()
	}
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	s := &Store{
		dir:        dir,
		fs:         vfs,
		fsync:      opts.Fsync,
		window:     opts.GroupWindow,
		maxBatch:   opts.MaxBatch,
		grouped:    opts.grouped(),
		maxWorkers: opts.CommitWorkers,
		progs:      make(map[string]*progLog),
		byKey:      make(map[string]string),
	}
	if s.grouped && s.maxBatch <= 1 {
		s.maxBatch = 256
	}
	if s.maxWorkers <= 0 {
		// Committers are fsync-bound, not CPU-bound: a generous cap keeps
		// distinct programs' fsyncs overlapping (the filesystem coalesces
		// concurrent journal commits) while still bounding a fleet of
		// thousands of programs to a fixed goroutine budget.
		s.maxWorkers = 32
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// fileKey derives the filename-safe key for a program ID.
func fileKey(programID string) string {
	sum := sha256.Sum256([]byte(programID))
	return hex.EncodeToString(sum[:8])
}

// parseName splits "wal-<key>-<gen>.log", "snap-<key>-<gen>.snap", and
// "delta-<key>-<gen>.snap".
func parseName(name string) (kind, key string, gen uint64, ok bool) {
	var ext string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		kind, ext = "wal", ".log"
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		kind, ext = "snap", ".snap"
	case strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".snap"):
		kind, ext = "delta", ".snap"
	default:
		return "", "", 0, false
	}
	body := strings.TrimSuffix(name[len(kind)+1:], ext)
	i := strings.LastIndexByte(body, '-')
	if i <= 0 {
		return "", "", 0, false
	}
	g, err := strconv.ParseUint(body[i+1:], 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	return kind, body[:i], g, true
}

func (s *Store) walPath(key string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%s-%d.log", key, gen))
}

func (s *Store) snapPath(key string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%s-%d.snap", key, gen))
}

func (s *Store) deltaPath(key string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("delta-%s-%d.snap", key, gen))
}

// scan indexes existing files: per program, the newest full snapshot is the
// chain base, delta generations above it extend the chain, and the current
// generation is the highest of any file; stale older generations are
// removed.
func (s *Store) scan() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("journal: scan: %w", err)
	}
	type genState struct {
		snapGen, walGen uint64
		hasSnap, hasWal bool
		deltas          []uint64
	}
	seen := make(map[string]*genState)
	tethers := make(map[string]*tetherMarker)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name)) // torn snapshot write
			continue
		}
		if key, ok := parseTetherName(name); ok {
			if tm, err := s.readTether(key); err == nil {
				tethers[key] = tm
			} else {
				// An unreadable tether marker is dead weight: the chain it
				// described is unreachable either way, so drop it rather than
				// letting it shadow a future chain at the same key.
				_ = s.fs.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		kind, key, gen, ok := parseName(name)
		if !ok {
			continue
		}
		g := seen[key]
		if g == nil {
			g = &genState{}
			seen[key] = g
		}
		switch kind {
		case "snap":
			if !g.hasSnap || gen > g.snapGen {
				g.snapGen, g.hasSnap = gen, true
			}
		case "wal":
			if !g.hasWal || gen > g.walGen {
				g.walGen, g.hasWal = gen, true
			}
		case "delta":
			g.deltas = append(g.deltas, gen)
		}
	}
	// Pruned chains: the tether marker stands in for the base and delta
	// files it pruned. A local base at or above the tethered one supersedes
	// the marker (a later full checkpoint compacted the chain locally).
	for key, tm := range tethers {
		g := seen[key]
		if g == nil {
			g = &genState{}
			seen[key] = g
		}
		if g.hasSnap && g.snapGen >= tm.BaseGen {
			_ = s.fs.Remove(s.tetherPath(key))
			delete(tethers, key)
			continue
		}
		g.snapGen, g.hasSnap = tm.BaseGen, true
		g.deltas = append(g.deltas, tm.Deltas...)
	}
	for key, g := range seen {
		gen := g.walGen
		if g.hasSnap && g.snapGen > gen {
			gen = g.snapGen
		}
		var deltas []uint64
		for _, dg := range g.deltas {
			if dg > gen {
				gen = dg
			}
		}
		sort.Slice(g.deltas, func(i, j int) bool { return g.deltas[i] < g.deltas[j] })
		for _, dg := range g.deltas {
			if dg > g.snapGen || !g.hasSnap {
				if n := len(deltas); n > 0 && deltas[n-1] == dg {
					continue // a tethered delta that is also still local
				}
				deltas = append(deltas, dg)
			}
		}
		pl := &progLog{
			key:      key,
			gen:      gen,
			baseGen:  g.snapGen,
			hasBase:  g.hasSnap,
			deltas:   deltas,
			tethered: tethers[key] != nil,
		}
		id, err := s.programIDFor(pl, tethers[key])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				// A probe hit a transient I/O error (EIO on an intact file):
				// the chain may be perfectly valid, so refuse to open the
				// store rather than quarantine acked state off a flaky read.
				return fmt.Errorf("journal: scan: %w", err)
			}
			// Nothing under this key is readable — every probe found the
			// journal header, snapshot, delta, and tether missing or corrupt.
			// Acked state always leaves at least one of those durably intact,
			// so these remains are a creation that never completed; quarantine
			// them instead of refusing to open the whole store.
			s.removeKeyFiles(key)
			continue
		}
		pl.id = id
		s.progs[id] = pl
		s.byKey[key] = id
		s.cleanStale(pl)
	}
	return nil
}

// programIDFor recovers the program ID recorded in a key's newest journal,
// base snapshot, delta header, or tether marker (one of them exists at the
// current chain by construction). The returned error wraps ErrCorrupt only
// when every probe found its file missing, empty, or corrupt — the scan's
// quarantine condition; a transient read failure (EIO on an intact file)
// propagates as-is so the caller refuses to open rather than deletes.
func (s *Store) programIDFor(pl *progLog, tm *tetherMarker) (string, error) {
	var transient error
	probeFailed := func(err error) {
		if transient == nil && !errors.Is(err, os.ErrNotExist) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) {
			transient = err
		}
	}
	id, err := readWALHeader(s.fs, s.walPath(pl.key, pl.gen))
	if err == nil {
		return id, nil
	}
	probeFailed(err)
	if pl.hasBase {
		snap, err := readSnapshotFile(s.fs, s.snapPath(pl.key, pl.baseGen))
		if err == nil {
			return snap.ProgramID, nil
		}
		probeFailed(err)
	}
	if n := len(pl.deltas); n > 0 {
		snap, err := readSnapshotFile(s.fs, s.deltaPath(pl.key, pl.deltas[n-1]))
		if err == nil {
			return snap.ProgramID, nil
		}
		probeFailed(err)
	}
	if tm != nil && tm.ProgramID != "" {
		return tm.ProgramID, nil
	}
	if transient != nil {
		return "", fmt.Errorf("journal: identify key %s: %w", pl.key, transient)
	}
	return "", fmt.Errorf("%w: no readable header for key %s", ErrCorrupt, pl.key)
}

// removeKeyFiles deletes every chain file under a key whose identity is
// unrecoverable (scan quarantine).
func (s *Store) removeKeyFiles(key string) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if _, k, _, ok := parseName(e.Name()); ok && k == key {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// cleanStale removes files superseded by the program's current chain:
// snapshots and deltas below the base, deltas above the base that fell out
// of the chain, and journals below the current generation.
func (s *Store) cleanStale(pl *progLog) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	inChain := make(map[uint64]bool, len(pl.deltas))
	for _, dg := range pl.deltas {
		inChain[dg] = true
	}
	for _, e := range entries {
		kind, k, g, ok := parseName(e.Name())
		if !ok || k != pl.key {
			continue
		}
		stale := false
		switch kind {
		case "wal":
			stale = g < pl.gen
		case "snap":
			stale = !pl.hasBase || g < pl.baseGen
		case "delta":
			stale = !inChain[g]
		}
		if stale {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Programs returns the IDs of every program with persisted state, sorted.
func (s *Store) Programs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.progs))
	for id := range s.progs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// log resolves (creating if absent) a program's log state.
func (s *Store) log(programID string) *progLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl, ok := s.progs[programID]
	if !ok {
		pl = &progLog{id: programID, key: fileKey(programID), gen: 0, replayed: true}
		s.progs[programID] = pl
		s.byKey[pl.key] = programID
	}
	return pl
}

// LoadSnapshot returns the program's newest *base* snapshot, or nil when
// none exists, without touching the delta segments. Callers recovering
// full state should use LoadChain.
func (s *Store) LoadSnapshot(programID string) (*ProgramSnapshot, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return s.loadBaseLocked(pl, programID)
}

// loadBaseLocked reads a program's base snapshot (nil when none exists),
// rehydrating a pruned chain from the archive tier first.
func (s *Store) loadBaseLocked(pl *progLog, programID string) (*ProgramSnapshot, error) {
	if !pl.hasBase {
		return nil, nil
	}
	if pl.tethered {
		if err := s.rehydrateLocked(pl, programID); err != nil {
			return nil, err
		}
	}
	base, err := readSnapshotFile(s.fs, s.snapPath(pl.key, pl.baseGen))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if base.ProgramID != programID {
		return nil, fmt.Errorf("%w: snapshot for %q found under key of %q", ErrCorrupt, base.ProgramID, programID)
	}
	return base, nil
}

// LoadChain returns the program's snapshot chain: the base full snapshot
// (nil when the program has never been fully checkpointed) and the delta
// segments layered over it, in application order.
func (s *Store) LoadChain(programID string) (*ProgramSnapshot, []*ProgramSnapshot, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	base, err := s.loadBaseLocked(pl, programID)
	if base == nil || err != nil {
		return nil, nil, err
	}
	deltas := make([]*ProgramSnapshot, 0, len(pl.deltas))
	for _, dg := range pl.deltas {
		d, err := readSnapshotFile(s.fs, s.deltaPath(pl.key, dg))
		if err != nil {
			return nil, nil, err
		}
		if d.ProgramID != programID {
			return nil, nil, fmt.Errorf("%w: delta for %q found under key of %q", ErrCorrupt, d.ProgramID, programID)
		}
		deltas = append(deltas, d)
	}
	return base, deltas, nil
}

// Replay feeds every journaled operation after the newest checkpoint to
// apply, in append order. A torn tail (crash mid-append: a short record or
// a CRC mismatch) is truncated so subsequent appends extend a valid
// journal. A whole, CRC-valid record that fails to decode is not a tear:
// Replay returns ErrCorrupt and leaves the file untouched. Replay must run before the
// first Append for a recovered program; it returns the number of
// operations replayed.
func (s *Store) Replay(programID string, apply func(*Op) error) (int, error) {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	path := s.walPath(pl.key, pl.gen)
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		pl.replayed = true
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: replay %s: %w", programID, err)
	}
	id, body, err := splitWALHeader(data)
	if err != nil {
		// Torn header: the creation write never completed, so no record in
		// this file was ever acked. Reset it to empty; the next append
		// writes a fresh header.
		if terr := s.fs.Truncate(path, 0); terr != nil {
			return 0, fmt.Errorf("journal: reset torn wal header of %s: %w", programID, terr)
		}
		pl.replayed = true
		pl.appends = 0
		return 0, nil
	}
	if id != programID {
		return 0, fmt.Errorf("%w: journal for %q found under key of %q", ErrCorrupt, id, programID)
	}
	n := 0
	valid := len(data) - len(body)
	for len(body) > 0 {
		payload, rest, ok := readRecord(body)
		if !ok {
			break // torn tail: never applied, never acked
		}
		op, err := decodeOp(payload)
		if err != nil {
			// The record is whole and its CRC matches, so it was written
			// and possibly acked: truncating here would drop it and every
			// acked op behind it. Refuse to open instead.
			return n, fmt.Errorf("journal: replay %s op %d: %w", programID, n, err)
		}
		if err := apply(op); err != nil {
			return n, fmt.Errorf("journal: replay %s op %d: %w", programID, n, err)
		}
		n++
		valid += len(body) - len(rest)
		body = rest
	}
	if valid < len(data) {
		if err := s.fs.Truncate(path, int64(valid)); err != nil {
			return n, fmt.Errorf("journal: truncate torn tail of %s: %w", programID, err)
		}
	}
	pl.replayed = true
	pl.appends = uint64(n)
	return n, nil
}

// AppendsSinceCheckpoint reports how many records sit in the program's
// current journal generation — the replay debt a checkpoint would retire.
// Zero means a checkpoint would capture nothing the chain doesn't already
// hold.
func (s *Store) AppendsSinceCheckpoint(programID string) uint64 {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.appends
}

// Append journals one operation for the program. The record is on disk (in
// the OS, fsynced with Options.Fsync) when Append returns; callers apply
// the operation only after a successful append. With group commit enabled
// the record may share its write and fsync with concurrent appends, but the
// call still blocks until the record's group is durable.
func (s *Store) Append(programID string, op *Op) error {
	pl := s.log(programID)
	if !s.grouped {
		pl.mu.Lock()
		defer pl.mu.Unlock()
		return s.appendLocked(pl, op)
	}
	p := &pendingAppend{op: op, done: donePool.Get().(chan error)}
	pl.pendMu.Lock()
	pl.pending = append(pl.pending, p)
	pl.pendMu.Unlock()
	s.enqueueCommit(pl)
	err := <-p.done
	donePool.Put(p.done)
	return err
}

// enqueueCommit registers a program with pending records in the store-wide
// commit queue and makes sure a committer will see it: a worker is spawned
// unless the pool is at its cap. A program already queued — or currently
// being flushed, in which case the flushing worker re-checks its pending
// queue before releasing the claim — is not re-added.
func (s *Store) enqueueCommit(pl *progLog) {
	s.commitMu.Lock()
	if !pl.queued && !pl.flushing {
		pl.queued = true
		s.commitQueue = append(s.commitQueue, pl)
	}
	spawn := s.workers < s.maxWorkers && len(s.commitQueue) > 0
	if spawn {
		s.workers++
	}
	s.commitMu.Unlock()
	if spawn {
		go s.commitWorker()
	}
}

// commitWorker is one committer in the store's shared pool: it pops the
// next program with pending records, cuts a group of up to maxBatch of
// them, writes the group as one buffered write plus (with Options.Fsync)
// one fsync, and delivers the result to every blocked appender — then moves
// to the next program. Workers exit when the queue drains; the next Append
// restarts one. Sharing the pool across programs is what keeps a fleet of
// thousands of cold programs at a handful of goroutines, while distinct hot
// programs still flush (and fsync) concurrently up to the pool cap.
func (s *Store) commitWorker() {
	for {
		s.commitMu.Lock()
		if len(s.commitQueue) == 0 {
			s.workers--
			s.commitMu.Unlock()
			return
		}
		pl := s.commitQueue[0]
		s.commitQueue = s.commitQueue[1:]
		pl.queued = false
		pl.flushing = true
		alone := len(s.commitQueue) == 0
		s.commitMu.Unlock()

		if s.window > 0 {
			// Flush window: give concurrent appenders a beat to coalesce,
			// unless a full group is already waiting or other programs are
			// queued behind this one (their latency would pay for our
			// coalescing).
			pl.pendMu.Lock()
			n := len(pl.pending)
			pl.pendMu.Unlock()
			if n < s.maxBatch && alone {
				// Pure durability pacing: the wait bounds commit latency and
				// never feeds journaled or simulated state, so determinism
				// (replay ≡ live) is unaffected by how long it actually takes.
				//lint:allow wallclock group-commit flush window is pacing only; no journaled or simulated state derives from the clock
				time.Sleep(s.window)
			}
		} else {
			// No timed window: yield once so appenders already woken by the
			// previous group's delivery get to enqueue before this group is
			// cut. A scheduler pass costs nanoseconds and routinely doubles
			// the records per fsync under contention; a timer would cost
			// its quantization (~1ms under load) instead.
			runtime.Gosched()
		}

		for {
			pl.pendMu.Lock()
			var batch []*pendingAppend
			if len(pl.pending) > s.maxBatch {
				batch = pl.pending[:s.maxBatch:s.maxBatch]
				pl.pending = pl.pending[s.maxBatch:]
			} else {
				batch = pl.pending
				pl.pending = nil
			}
			pl.pendMu.Unlock()
			if len(batch) == 0 {
				// Release the flush claim with a final pending re-check
				// under commitMu: an append that slipped in after the last
				// cut but saw flushing still set (and so did not queue the
				// program) is re-queued here instead of stranding until the
				// next append.
				s.commitMu.Lock()
				pl.pendMu.Lock()
				if len(pl.pending) > 0 && !pl.queued {
					pl.queued = true
					s.commitQueue = append(s.commitQueue, pl)
				}
				pl.flushing = false
				pl.pendMu.Unlock()
				s.commitMu.Unlock()
				break
			}
			err := s.flushGroup(pl, batch)
			for _, p := range batch {
				p.done <- err
			}
		}
	}
}

// flushGroup writes one group of records as a single write (+fsync) under
// the program's file lock, encoding each op straight into the reused group
// buffer — no per-record allocations.
func (s *Store) flushGroup(pl *progLog, batch []*pendingAppend) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	buf := pl.wbuf[:0]
	for _, p := range batch {
		pl.scratch = appendOp(pl.scratch[:0], p.op)
		buf = appendRecord(buf, pl.scratch)
	}
	pl.wbuf = buf[:0]
	if err := s.writeFramesLocked(pl, buf); err != nil {
		return err
	}
	pl.appends += uint64(len(batch))
	return nil
}

func (s *Store) appendLocked(pl *progLog, op *Op) error {
	pl.scratch = appendOp(pl.scratch[:0], op)
	pl.wbuf = appendRecord(pl.wbuf[:0], pl.scratch)
	if err := s.writeFramesLocked(pl, pl.wbuf); err != nil {
		pl.wbuf = pl.wbuf[:0]
		return err
	}
	pl.wbuf = pl.wbuf[:0]
	pl.appends++
	return nil
}

// writeFramesLocked lands one or more framed records at the end of the
// program's journal, durably (per Options.Fsync). A failed or unsynced
// write is rolled back by truncating to the last good record boundary —
// otherwise later appends would be acknowledged *beyond* torn bytes, and
// recovery's truncate-at-first-bad-record would silently discard them. If
// the rollback itself fails the journal is poisoned: further appends are
// refused until a checkpoint rotates to a fresh generation.
func (s *Store) writeFramesLocked(pl *progLog, buf []byte) error {
	if pl.broken {
		return fmt.Errorf("journal: %s has an unremovable torn tail; appends disabled until checkpoint", pl.id)
	}
	if !pl.replayed {
		return fmt.Errorf("journal: append to %s before Replay", pl.id)
	}
	if pl.f == nil {
		f, size, err := openWAL(s.fs, s.walPath(pl.key, pl.gen), pl.id)
		if err != nil {
			return err
		}
		pl.f = f
		pl.size = size
	}
	if _, err := pl.f.Write(buf); err != nil {
		s.rollbackTornLocked(pl)
		return fmt.Errorf("journal: append %s: %w", pl.id, err)
	}
	if s.fsync {
		if err := pl.f.Sync(); err != nil {
			// The bytes may sit in the page cache unsynced: the caller will
			// reject the batch, so the record must not replay either.
			s.rollbackTornLocked(pl)
			return fmt.Errorf("journal: sync %s: %w", pl.id, err)
		}
	}
	pl.size += int64(len(buf))
	return nil
}

// rollbackTornLocked cuts the journal back to the last good record
// boundary after a failed write, poisoning the generation if the cut
// fails.
func (s *Store) rollbackTornLocked(pl *progLog) {
	if err := pl.f.Truncate(pl.size); err != nil {
		pl.broken = true
	}
}

// Checkpoint installs a new *full* snapshot for snap.ProgramID, compacting
// its chain: the snapshot is written to a temp file, fsynced, and atomically
// renamed; only then is a fresh journal generation started and every
// superseded file (previous base, delta segments, old journal) deleted. The
// caller must guarantee no Append for this program runs concurrently (the
// hive holds its per-program checkpoint gate).
func (s *Store) Checkpoint(snap *ProgramSnapshot) error {
	pl := s.log(snap.ProgramID)
	pl.mu.Lock()
	defer pl.mu.Unlock()

	next := pl.gen + 1
	if err := writeSnapshotFile(s.fs, s.snapPath(pl.key, next), snap); err != nil {
		return err
	}
	// New base is durable; switch appends over and drop the old chain.
	if pl.f != nil {
		_ = pl.f.Close()
		pl.f = nil
	}
	_ = s.fs.Remove(s.walPath(pl.key, pl.gen))
	if pl.hasBase {
		_ = s.fs.Remove(s.snapPath(pl.key, pl.baseGen))
	}
	for _, dg := range pl.deltas {
		_ = s.fs.Remove(s.deltaPath(pl.key, dg))
	}
	if pl.tethered {
		// The fresh full base supersedes the whole archived chain: the
		// local directory is self-sufficient again.
		_ = s.fs.Remove(s.tetherPath(pl.key))
		pl.tethered = false
	}
	pl.gen = next
	pl.baseGen = next
	pl.hasBase = true
	pl.deltas = nil
	pl.replayed = true
	pl.appends = 0
	pl.broken = false // a poisoned generation was rotated away
	return nil
}

// CheckpointDelta installs an *incremental* snapshot: a delta segment
// holding only the state that changed since the previous checkpoint,
// layered over the existing chain, and rotates the journal (whose ops the
// delta captures). The write is atomic like a full checkpoint's; the caller
// holds the same no-concurrent-appends gate. Requires an existing base
// snapshot — the first checkpoint for a program must be full.
func (s *Store) CheckpointDelta(snap *ProgramSnapshot) error {
	pl := s.log(snap.ProgramID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.hasBase {
		return fmt.Errorf("journal: delta checkpoint for %s without a base snapshot", snap.ProgramID)
	}
	next := pl.gen + 1
	if err := writeSnapshotFile(s.fs, s.deltaPath(pl.key, next), snap); err != nil {
		return err
	}
	if pl.f != nil {
		_ = pl.f.Close()
		pl.f = nil
	}
	_ = s.fs.Remove(s.walPath(pl.key, pl.gen))
	pl.deltas = append(pl.deltas, next)
	pl.gen = next
	pl.replayed = true
	pl.appends = 0
	pl.broken = false // a poisoned generation was rotated away
	return nil
}

// ChainLength returns the number of delta segments layered over the
// program's base snapshot (0 when compact or never checkpointed).
func (s *Store) ChainLength(programID string) int {
	pl := s.log(programID)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.deltas)
}

// Close closes every open journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, pl := range s.progs {
		pl.mu.Lock()
		if pl.f != nil {
			if err := pl.f.Close(); err != nil && first == nil {
				first = err
			}
			pl.f = nil
		}
		pl.mu.Unlock()
	}
	return first
}

// --- journal file helpers ---

// openWAL opens (creating with a header if new) a journal for appending,
// returning its current length. O_APPEND keeps writes landing at the true
// end of file even after a recovery truncated a torn tail.
func openWAL(vfs FS, path, programID string) (File, int64, error) {
	// A header that never finished landing (the creation write torn by a
	// crash or injected fault) means nothing in this file was ever acked —
	// a failed header write fails the append that triggered it. Reset such
	// a file to empty rather than appending records after the torn header,
	// which would ack writes a recovery scan could never attribute.
	switch id, err := readWALHeader(vfs, path); {
	case err == nil && id != programID:
		return nil, 0, fmt.Errorf("%w: journal for %q found under key of %q", ErrCorrupt, id, programID)
	case err != nil && errors.Is(err, ErrCorrupt):
		if terr := vfs.Truncate(path, 0); terr != nil {
			return nil, 0, fmt.Errorf("journal: reset torn wal header: %w", terr)
		}
	}
	f, err := vfs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, 0, fmt.Errorf("journal: stat wal: %w", err)
	}
	size := st.Size()
	if size == 0 {
		hdr := []byte(walMagic)
		hdr = binary.AppendUvarint(hdr, uint64(len(programID)))
		hdr = append(hdr, programID...)
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close()
			return nil, 0, fmt.Errorf("journal: write wal header: %w", err)
		}
		size = int64(len(hdr))
	}
	return f, size, nil
}

// readWALHeader returns the program ID recorded in a journal header.
func readWALHeader(vfs FS, path string) (string, error) {
	f, err := vfs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, len(walMagic)+binary.MaxVarintLen64+256)
	n, err := f.Read(buf)
	if err != nil && n == 0 {
		return "", err
	}
	id, _, err := splitWALHeader(buf[:n])
	return id, err
}

// splitWALHeader validates the header and returns (programID, records).
func splitWALHeader(data []byte) (string, []byte, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return "", nil, fmt.Errorf("%w: bad wal magic", ErrCorrupt)
	}
	rest := data[len(walMagic):]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > uint64(len(rest)-sz) {
		return "", nil, fmt.Errorf("%w: bad wal header", ErrCorrupt)
	}
	id := string(rest[sz : sz+int(n)])
	return id, rest[sz+int(n):], nil
}

// appendRecord frames one payload: uvarint length, payload, CRC32.
func appendRecord(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

// readRecord unframes the next record; ok is false on a torn or corrupt
// record (recovery truncates there).
func readRecord(data []byte) (payload, rest []byte, ok bool) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)-sz) {
		return nil, nil, false
	}
	body := data[sz:]
	if uint64(len(body)) < n+4 {
		return nil, nil, false
	}
	payload = body[:n]
	want := binary.LittleEndian.Uint32(body[n : n+4])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, nil, false
	}
	return payload, body[n+4:], true
}
