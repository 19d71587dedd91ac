// Command hive runs a standalone SoftBorg hive: a TCP server that ingests
// pod traces, synthesizes fixes, and serves guidance for a corpus of
// generated programs (pods must be started with the same -seed corpus; see
// cmd/pod).
//
// With -data-dir the hive is durable: collective knowledge (execution
// trees, failure signatures, fixes, proofs, and the exactly-once session
// dedup table) is journaled ahead of being applied and snapshotted every
// -snapshot-every; on boot the hive recovers snapshot chain + journal
// suffix, so killing the process loses nothing that was acknowledged.
// Journal appends group-commit (-group-batch/-group-window: concurrent
// appends coalesce into one write+fsync) and snapshots are incremental
// delta segments compacted into a full snapshot every -compact-every
// checkpoints, so durable ingest and checkpoint pauses both track the
// change rate, not the accumulated tree size.
//
// With -peers the hive is one member of a sharded fleet: a consistent-hash
// ring over the peer addresses (seeded by -ring-seed, which the whole
// fleet must share) assigns every program an owner. Misdirected
// submissions are answered with a redirect to the owner; fix and guidance
// reads are proxied to it server-side. SIGHUP triggers a
// rebalance: peers are probed, dead ones are dropped from the ring, and
// the bumped placement map is installed and advertised on the next hello.
//
//	hive -addr 127.0.0.1:7070 -programs 4 -seed 1 -data-dir /var/lib/hive -fsync
//	hive -addr 127.0.0.1:7071 -peers 127.0.0.1:7070,127.0.0.1:7071 -self 127.0.0.1:7071
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/proggen"
	"repro/internal/ring"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hive:", err)
		os.Exit(1)
	}
}

// writerID loads (creating on first boot) this replica's archive writer
// name, persisted alongside its journal. Each replica owns its data dir, so
// a random ID stored there is unique across the fleet without coordination
// and stable across restarts.
func writerID(dataDir string) (string, error) {
	path := filepath.Join(dataDir, "writer-id")
	if b, err := os.ReadFile(path); err == nil {
		if id := strings.TrimSpace(string(b)); id != "" {
			return id, nil
		}
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("writer id: %w", err)
	}
	id := "w-" + hex.EncodeToString(buf[:])
	if err := os.WriteFile(path, []byte(id+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("writer id: %w", err)
	}
	return id, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("hive", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	programs := fs.Int("programs", 4, "number of generated programs to serve")
	seed := fs.Uint64("seed", 1, "program-corpus seed (must match pods)")
	statsEvery := fs.Duration("stats", 5*time.Second, "stats reporting interval (0 disables)")
	dataDir := fs.String("data-dir", "", "journal/snapshot directory; empty runs in-memory only")
	snapshotEvery := fs.Duration("snapshot-every", 30*time.Second, "background snapshot interval (0 disables; requires -data-dir)")
	fsync := fs.Bool("fsync", false, "fsync every journal flush (power-failure durability)")
	groupWindow := fs.Duration("group-window", 0, "group-commit flush window: how long an append waits for concurrent appends to coalesce (0 flushes as soon as the committer is free)")
	groupBatch := fs.Int("group-batch", 256, "group-commit batch cap: max journal records coalesced into one write+fsync (<=1 disables group commit)")
	commitWorkers := fs.Int("commit-workers", 0, "committer-pool cap shared across all programs' journals (0 uses the default; the pool bounds goroutines and fsync concurrency for the whole data dir)")
	compactEvery := fs.Int("compact-every", 8, "snapshots are incremental delta segments, compacted into a full snapshot every N checkpoints (<=0 makes every snapshot full)")
	archiveDir := fs.String("archive-dir", "", "archive object-store directory: snapshot chains and sealed WAL segments are tiered here in the background (requires -data-dir)")
	archiveEvery := fs.Duration("archive-every", time.Minute, "background archive sync interval (0 disables; requires -archive-dir)")
	diskBudget := fs.Int64("disk-budget", 0, "local data-dir byte budget: archived chains past it are pruned to tether markers and rehydrated from the archive on demand (0 keeps everything local; requires -archive-dir)")
	maxFrame := fs.Int("max-frame", 0, "cap on the frame-size raise a client's hello is granted, in bytes (0 uses the built-in maximum; never drops below the universal frame limit)")
	sessRate := fs.Float64("max-sessions-rate", 0, "per-session admission rate in traces/sec; over-rate clients get busy-retry replies (0 disables)")
	ingestQueue := fs.Int64("ingest-queue", 0, "server-wide ingest queue budget in bytes: per-conn reads pause at 1/4 of this, and queued/budget is the shed pressure gauge (0 disables)")
	shedWatermark := fs.Float64("shed-watermark", 0, "pressure in [0,1) past which batches are priced and the cheapest shed; 0 disables shedding, negative selects the default watermark (requires -ingest-queue)")
	rarityFloor := fs.Int64("rarity-floor", 0, "sibling-visit count under which novel paths are deferrable near saturation (0 disables the defer tier)")
	frameTimeout := fs.Duration("frame-timeout", 0, "max wall time a started frame may dribble before the connection is evicted (0 disables slow-loris protection)")
	maxConns := fs.Int64("max-conns", 0, "cap on concurrently served connections; excess accepts are closed (0 unlimited)")
	maxHalfOpen := fs.Int64("max-half-open", 0, "cap on connections that have not yet completed one valid frame (0 unlimited)")
	peers := fs.String("peers", "", "comma-separated fleet addresses, this hive's advertised address included; empty runs unsharded")
	selfAddr := fs.String("self", "", "this hive's advertised address within -peers (default: the bound listen address)")
	ringSeed := fs.Uint64("ring-seed", 1, "placement-ring hash seed; the whole fleet must agree")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per hive on the placement ring (0 uses the default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	h := hive.New("fleet")
	// Operational warnings (e.g. the first session-table eviction) go to
	// stderr so an operator sees dedup degrade before chasing duplicates.
	h.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	ids := make([]string, 0, *programs)
	for i := 0; i < *programs; i++ {
		p, _, err := proggen.Generate(proggen.CorpusSpec(*seed, i))
		if err != nil {
			return err
		}
		if err := h.RegisterProgram(p); err != nil {
			return err
		}
		ids = append(ids, p.ID)
		fmt.Printf("registered program %d: %s (%s)\n", i, p.Name, p.ID)
	}

	var (
		store *journal.Store
		arch  *archive.Archiver
	)
	if *dataDir != "" {
		var err error
		store, err = journal.Open(*dataDir, journal.Options{
			Fsync:         *fsync,
			GroupWindow:   *groupWindow,
			MaxBatch:      *groupBatch,
			CommitWorkers: *commitWorkers,
		})
		if err != nil {
			return err
		}
		defer store.Close()
		if *archiveDir != "" {
			obj, err := archive.NewDirStore(*archiveDir, nil)
			if err != nil {
				return err
			}
			// The fetcher must be armed before Recover: a boot against a
			// data dir pruned to tether markers rehydrates chains from the
			// archive during recovery.
			store.SetChainFetcher(archive.ChainFetcher(obj))
			// The writer name must be unique per replica — manifests are
			// keyed by it and replicas must never overwrite each other's —
			// so it cannot come from the -addr flag (two replicas behind
			// different hosts may share the default). A random ID persisted
			// in the data dir is unique by construction and stable across
			// restarts, so a rebooted archiver resumes its own manifests.
			writer, err := writerID(*dataDir)
			if err != nil {
				return err
			}
			arch = archive.New(store, obj, archive.Options{
				Writer:     writer,
				DiskBudget: *diskBudget,
			})
		} else if *diskBudget > 0 {
			return fmt.Errorf("-disk-budget needs -archive-dir: chains can only be pruned locally once they are archived")
		}
		h.SetCompactEvery(*compactEvery)
		if err := h.Recover(store); err != nil {
			return err
		}
		for i, id := range ids {
			if st, err := h.ProgramStats(id); err == nil && st.Ingested > 0 {
				fmt.Printf("recovered program %d: ingested=%d paths=%d fixes=%d failures=%d\n",
					i, st.Ingested, st.Tree.Paths, st.FixCount, len(st.Failures))
			}
		}
		fmt.Printf("durable hive: data in %s (snapshot every %v)\n", *dataDir, *snapshotEvery)
		if arch != nil {
			fmt.Printf("archive tier: %s (sync every %v, disk budget %dB)\n", *archiveDir, *archiveEvery, *diskBudget)
		}
	} else if *archiveDir != "" {
		return fmt.Errorf("-archive-dir needs -data-dir: the archive tiers the journal, it does not replace it")
	} else if *diskBudget > 0 {
		return fmt.Errorf("-disk-budget needs -archive-dir: chains can only be pruned locally once they are archived")
	}

	srv := wire.NewServer(h)
	srv.MaxFrame = *maxFrame
	if *sessRate > 0 || *ingestQueue > 0 || *frameTimeout > 0 || *maxConns > 0 || *maxHalfOpen > 0 {
		adm := &wire.Admission{
			SessionRate:  *sessRate,
			FrameTimeout: *frameTimeout,
			MaxConns:     *maxConns,
			MaxHalfOpen:  *maxHalfOpen,
		}
		if *ingestQueue > 0 {
			adm.TotalQueueBytes = *ingestQueue
			adm.ConnQueueBytes = *ingestQueue / 4
		}
		srv.Admission = adm
	}
	if *shedWatermark != 0 {
		if *ingestQueue <= 0 {
			return fmt.Errorf("-shed-watermark needs -ingest-queue: the pressure gauge is queued bytes over the queue budget")
		}
		w := *shedWatermark
		if w < 0 {
			w = 0 // SetShedPolicy substitutes the default watermark
		}
		h.SetShedPolicy(&hive.ShedPolicy{Watermark: w, RarityFloor: *rarityFloor})
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("hive listening on %s\n", bound)

	// Sharded fleet: install the placement ring and arm the SIGHUP
	// rebalance trigger.
	var (
		fleet        []string
		self         string
		placeVersion uint64
	)
	rebal := make(chan os.Signal, 1)
	if *peers != "" {
		fleet = strings.Split(*peers, ",")
		self = *selfAddr
		if self == "" {
			self = bound
		}
		placeVersion = 1
		m := ring.NewVersion(placeVersion, fleet, *vnodes, *ringSeed)
		if !m.Contains(self) {
			return fmt.Errorf("self address %s is not in -peers %s", self, *peers)
		}
		srv.SetPlacement(m, self)
		fmt.Printf("sharded hive: placement v%d over %v, self=%s\n", m.Version(), m.Nodes(), self)
		signal.Notify(rebal, syscall.SIGHUP)
	}
	rebalance := func() {
		live := make([]string, 0, len(fleet))
		for _, peer := range fleet {
			if peer == self {
				live = append(live, peer)
				continue
			}
			conn, err := net.DialTimeout("tcp", peer, 2*time.Second)
			if err != nil {
				fmt.Printf("rebalance: peer %s unreachable, dropping from ring: %v\n", peer, err)
				continue
			}
			_ = conn.Close()
			live = append(live, peer)
		}
		placeVersion++
		m := ring.NewVersion(placeVersion, live, *vnodes, *ringSeed)
		srv.SetPlacement(m, self)
		fmt.Printf("rebalance: placement v%d over %v\n", m.Version(), m.Nodes())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// Background snapshotter: bounds journal-replay time after a crash.
	snapDone := make(chan struct{})
	if store != nil && *snapshotEvery > 0 {
		ticker := time.NewTicker(*snapshotEvery)
		go func() {
			defer close(snapDone)
			for {
				select {
				case <-snapDone:
					return
				case <-ticker.C:
					if err := h.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "hive: snapshot:", err)
					}
				}
			}
		}()
		defer func() {
			ticker.Stop()
			snapDone <- struct{}{}
			<-snapDone
		}()
	}

	// Background archiver: tiers snapshot chains and sealed WAL segments
	// into the archive store and prunes local generations to the disk
	// budget. Sync errors are logged and retried on the next tick — the
	// local journal stays the source of truth until a sync lands.
	archDone := make(chan struct{})
	if arch != nil && *archiveEvery > 0 {
		ticker := time.NewTicker(*archiveEvery)
		go func() {
			defer close(archDone)
			for {
				select {
				case <-archDone:
					return
				case <-ticker.C:
					if err := arch.SyncAll(); err != nil {
						fmt.Fprintln(os.Stderr, "hive: archive sync:", err)
					}
				}
			}
		}()
		defer func() {
			ticker.Stop()
			archDone <- struct{}{}
			<-archDone
		}()
	}

	shutdown := func() error {
		fmt.Println("shutting down")
		if store != nil {
			// A final checkpoint makes the next boot replay-free; skipping it
			// (kill -9) only costs replay time, never data.
			if err := h.Checkpoint(); err != nil {
				return err
			}
			if err := h.DurabilityError(); err != nil {
				return fmt.Errorf("durability degraded during run: %w", err)
			}
		}
		if arch != nil {
			// A final archive sync ships the closing checkpoint, so a cold
			// standby can rebuild this hive's final state from the archive
			// alone. Failure is reported but not fatal: the local dir holds
			// everything.
			if err := arch.SyncAll(); err != nil {
				fmt.Fprintln(os.Stderr, "hive: final archive sync:", err)
			}
		}
		return nil
	}

	if *statsEvery <= 0 {
		for {
			select {
			case <-stop:
				return shutdown()
			case <-rebal:
				rebalance()
			}
		}
	}
	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return shutdown()
		case <-rebal:
			rebalance()
		case <-ticker.C:
			for i, id := range ids {
				st, err := h.ProgramStats(id)
				if err != nil {
					continue
				}
				fmt.Printf("program %d: ingested=%d paths=%d fixes=%d failures=%d repair-lab=%d\n",
					i, st.Ingested, st.Tree.Paths, st.FixCount, len(st.Failures), st.RepairLab)
			}
			sessions, _ := h.SessionCount()
			fmt.Printf("sessions: %d\n", sessions)
			if ro := h.ReadOnlyPrograms(); ro > 0 {
				fmt.Printf("READ-ONLY: %d program(s) refusing ingest after journal write failures\n", ro)
			}
			if ss := h.ShedStats(); ss != (hive.ShedStats{}) {
				fmt.Printf("shed: admitted=%d first-sight=%d dup=%d covered=%d deferred=%d\n",
					ss.Admitted, ss.AdmittedFirstSight, ss.ShedDuplicate, ss.ShedCovered, ss.Deferred)
			}
			if as := srv.AdmissionStats(); as != (wire.AdmissionStats{}) {
				fmt.Printf("admission: busy=%d readonly-busy=%d slow-evicted=%d rejected=%d queued=%dB pressure=%.2f\n",
					as.BusyReplies, as.ReadOnlyBusy, as.SlowLorisEvicted, as.ConnsRejected, as.QueuedBytes, as.Pressure)
			}
			if arch != nil {
				st := arch.Stats()
				du, _ := store.DiskUsage()
				fmt.Printf("archive: syncs=%d segments=%d manifests=%d shipped=%dB pruned=%d(%dB) errors=%d local=%dB\n",
					st.Syncs, st.SegmentsWritten, st.ManifestsWritten, st.BytesWritten, st.ChainsPruned, st.BytesPruned, st.SyncErrors, du)
			}
		}
	}
}
