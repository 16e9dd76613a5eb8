package wal

import (
	"context"
	"strconv"

	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Instrument attaches a metrics registry to the store. Logs handed out by
// subsequent Create/Recover calls record durability telemetry on it:
//
//	wal_create_seconds    one observation per Create (snapshot 1, log, meta)
//	wal_append_seconds    one observation per Append (render + write + fsync)
//	wal_fsync_seconds     the fsync alone, nested under the append
//	wal_snapshot_seconds  snapshot write + rename during a rotation
//	wal_recovery_seconds  one observation per Recover
//	wal_rotations_total           completed rotations
//	wal_torn_tails_dropped_total  recoveries that truncated a torn tail
//	wal_stale_files_retired_total files deleted as stale sequence leftovers
//
// A nil registry (the default) disables all of it. Instrument is not
// synchronized with in-flight operations; call it right after Open.
func (s *Store) Instrument(reg *obs.Registry) { s.obs = reg }

// CreateCtx is Create with trace propagation: a wal_create span attaches
// under ctx's active trace span, alongside the wal_create_seconds histogram
// both forms record.
func (s *Store) CreateCtx(ctx context.Context, id, deck string, meta Meta) (*Log, error) {
	_, op := trace.StartOp(ctx, s.obs, "wal_create")
	l, err := s.create(id, deck, meta)
	op.SetError(err)
	op.End()
	return l, err
}

// AppendCtx is Append with trace propagation: a wal_append span (with a
// nested wal_fsync span) attaches under ctx's active trace span, alongside
// the duration histograms recorded on the store's registry.
func (l *Log) AppendCtx(ctx context.Context, edits []timing.Edit) error {
	if len(edits) == 0 {
		return nil
	}
	ctx, op := trace.StartOp(ctx, l.obs, "wal_append")
	op.Span().SetAttr("edits", strconv.Itoa(len(edits)))
	err := l.append(ctx, edits)
	op.SetError(err)
	op.End()
	return err
}

// RotateCtx is Rotate with trace propagation: the snapshot write gets a
// wal_snapshot span under ctx in addition to its histogram.
func (l *Log) RotateCtx(ctx context.Context, deck []byte, totalEdits int) error {
	return l.rotate(ctx, deck, totalEdits)
}

// RecoverCtx is Recover with trace propagation: the replay gets a
// wal_recovery span under ctx in addition to the wal_recovery_seconds
// histogram both forms record.
func (s *Store) RecoverCtx(ctx context.Context, id string) (*Recovered, *Log, error) {
	ctx, op := trace.StartOp(ctx, s.obs, "wal_recovery")
	op.Span().SetAttr("id", id)
	rec, l, err := s.recover(id)
	if rec != nil {
		op.Span().SetAttr("replayed_edits", strconv.Itoa(len(rec.Edits)))
	}
	op.SetError(err)
	op.End()
	return rec, l, err
}
