package main

import (
	"context"
	"fmt"
	"time"

	rcdelay "repro"
	"repro/internal/wal"
)

// Durability glue: every accepted design edit (POST /design/{id}/edit and
// accepted closure moves alike) is appended to a per-design write-ahead log
// under -data-dir via the ECO edit-list grammar, a snapshotter periodically
// folds the log into a materialized design deck, and recovery — at boot or
// lazily when a lookup misses an evicted-but-persisted id — replays
// snapshot + log tail through ParseDesign/NewDesignSession/Apply.

// openWAL mounts the durability store; main calls it when -data-dir is set.
// The store reports into the server's registry, so /metrics carries the
// wal_append/wal_fsync/wal_snapshot/wal_recovery histograms and the
// rotation/torn-tail/stale-file counters.
func (s *server) openWAL(dir string) error {
	st, err := wal.Open(dir)
	if err != nil {
		return err
	}
	st.Instrument(s.obs)
	s.wal = st
	return nil
}

// walCreate persists a brand-new design session with deck, the deck as
// posted, as its first snapshot: the session was built from ParseDesign of
// exactly that text, so recovery rebuilds it without a re-render. Called
// with the entry pinned; the session is young enough that no lock is needed
// for opts.
func (s *server) walCreate(ctx context.Context, ent *entry[*designSession], deck string) error {
	if s.wal == nil {
		return nil
	}
	ds := ent.val
	l, err := s.wal.CreateCtx(ctx, ent.id, deck, wal.Meta{
		Threshold: ds.opts.Threshold,
		Required:  ds.opts.Required,
		K:         ds.opts.K,
	})
	if err != nil {
		return err
	}
	s.lockDesign(ctx, ds)
	ds.wlog = l
	ds.mu.Unlock()
	return nil
}

// walAppend logs an accepted edit batch. Callers hold ds.mu, so append
// order is apply order; the append fsyncs before the client sees its
// response. When the log grows past -snapshot-every edits the session is
// snapshotted inline (the nets edited since the last snapshot materialized,
// then an atomic rename) so replay length stays bounded.
//
// A failed append leaves the log refusing appends until a rotation, while
// the batch is already applied in memory. So walAppend rotates once from the
// live session: the fresh snapshot holds the batch, which makes it durable,
// and the log is healed for the next batch. Only when that rotation fails
// too does the append's error reach the client.
func (s *server) walAppend(ctx context.Context, ds *designSession, edits []rcdelay.DesignEdit) error {
	if ds.wlog == nil || len(edits) == 0 {
		return nil
	}
	if err := ds.wlog.AppendCtx(ctx, edits); err != nil {
		if rerr := s.walSnapshotLocked(ctx, ds); rerr != nil {
			return fmt.Errorf("%w (healing rotation: %v)", err, rerr)
		}
		s.count("rcserve_wal_heals_total", 1)
		return nil
	}
	if s.snapEvery > 0 && ds.wlog.Pending() >= s.snapEvery {
		return s.walSnapshotLocked(ctx, ds)
	}
	return nil
}

// walSnapshotLocked rotates ds's log onto a fresh snapshot of the
// materialized design. The session re-renders only the nets whose trees
// changed since its previous deck and copies the rest. Callers hold ds.mu.
func (s *server) walSnapshotLocked(ctx context.Context, ds *designSession) error {
	deck, err := ds.sess.AppendDeck(nil)
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	return ds.wlog.RotateCtx(ctx, deck, ds.edits)
}

// snapshotAll snapshots every live design with pending WAL edits; the
// shutdown drain calls it so a clean restart recovers from snapshots alone.
func (s *server) snapshotAll() (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	var n int
	var firstErr error
	for _, id := range s.designs.ids() {
		ent, ok := s.designs.get(id)
		if !ok {
			continue
		}
		ds := ent.val
		s.lockDesign(context.Background(), ds)
		if ds.wlog != nil && ds.wlog.Pending() > 0 {
			if err := s.walSnapshotLocked(context.Background(), ds); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("design %s: %w", id, err)
				}
			} else {
				n++
			}
		}
		ds.mu.Unlock()
		s.designs.release(ent)
	}
	return n, firstErr
}

// snapshotter periodically folds grown logs into fresh snapshots so the
// replay a crash would pay stays short even for designs edited below the
// -snapshot-every inline threshold.
func (s *server) snapshotter(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := s.snapshotAll(); err != nil {
				s.logger.Error("rcserve: periodic snapshot", "err", err)
			} else if n > 0 {
				s.logger.Info("rcserve: periodic snapshots written", "designs", n)
			}
		case <-stop:
			return
		}
	}
}

// recoverDesigns replays every persisted design at boot, inserting each
// under its original id. It returns how many sessions were rebuilt.
func (s *server) recoverDesigns(ctx context.Context) (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	ids, err := s.wal.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		ent, ok := s.rebuildDesign(ctx, id)
		if !ok {
			return n, fmt.Errorf("design %s: replay failed", id)
		}
		s.designs.release(ent)
		n++
	}
	return n, nil
}

// recoverDesign is the lazy path: a lookup missed the in-memory store, but
// the id may still be durable (TTL/LRU eviction dropped the session, not
// the WAL). Rebuilds and re-inserts it pinned.
func (s *server) recoverDesign(ctx context.Context, id string) (*entry[*designSession], bool) {
	if s.wal == nil || !s.wal.Exists(id) {
		return nil, false
	}
	// One rebuild at a time: concurrent misses for the same id would race
	// to replay the same log and double-insert.
	s.recovering.Lock()
	defer s.recovering.Unlock()
	if ent, ok := s.designs.get(id); ok {
		return ent, true // another request already rebuilt it
	}
	return s.rebuildDesign(ctx, id)
}

// rebuildDesign replays one persisted design — newest snapshot through
// ParseDesign/NewDesignSession, then the log tail through Apply — and
// inserts the session under its original id, pinned.
func (s *server) rebuildDesign(ctx context.Context, id string) (*entry[*designSession], bool) {
	rec, l, err := s.wal.RecoverCtx(ctx, id)
	if err != nil {
		s.logger.Error("rcserve: design recovery", "id", id, "err", err)
		return nil, false
	}
	design, err := rcdelay.ParseDesign(rec.Deck)
	if err != nil {
		l.Close()
		s.logger.Error("rcserve: design recovery: snapshot parse", "id", id, "err", err)
		return nil, false
	}
	opts := designRequest{Threshold: rec.Meta.Threshold, Required: rec.Meta.Required, K: rec.Meta.K}
	sess, err := rcdelay.NewDesignSession(ctx, design, rcdelay.DesignOptions{
		Threshold: opts.Threshold,
		Required:  opts.Required,
		K:         opts.K,
		Obs:       s.obs,
	})
	if err != nil {
		l.Close()
		s.logger.Error("rcserve: design recovery: session mount", "id", id, "err", err)
		return nil, false
	}
	if len(rec.Edits) > 0 {
		if _, err := sess.ApplyCtx(ctx, rec.Edits); err != nil {
			l.Close()
			s.logger.Error("rcserve: design recovery: log replay", "id", id, "err", err)
			return nil, false
		}
	}
	ds := &designSession{sess: sess, edits: rec.Meta.Edits + len(rec.Edits), wlog: l, opts: opts}
	ent, ok := s.designs.insert(id, ds)
	if !ok {
		l.Close()
		return s.designs.get(id) // raced another recovery; use the winner
	}
	if rec.TornBytes > 0 {
		s.logger.Warn("rcserve: design recovery dropped torn log tail",
			"id", id, "bytes", rec.TornBytes)
	}
	s.count("rcserve_designs_recovered_total", 1)
	return ent, true
}
