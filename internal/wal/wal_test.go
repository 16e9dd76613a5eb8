package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/timing"
)

func f64(v float64) *float64 { return &v }

func testEdits() []timing.Edit {
	return []timing.Edit{
		{Op: "setR", Net: "drv", Node: "o", R: f64(5)},
		{Op: "addC", Net: "bus", Node: "far", C: f64(0.25)},
	}
}

const testDeck = ".design d\n.net drv\n.input in\nR1 in o 10\nC1 o 0 2\n.output o\n.endnet\n.end\n"

func TestCreateAppendRecover(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("abc123", testDeck, Meta{Threshold: 0.7, Required: 100, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdits()); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", l.Pending())
	}
	l.Close()

	if !st.Exists("abc123") {
		t.Fatal("Exists = false after Create")
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "abc123" {
		t.Fatalf("List = %v, %v", ids, err)
	}

	rec, l2, err := st.Recover("abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != testDeck {
		t.Errorf("recovered deck mismatch:\n%s", rec.Deck)
	}
	if rec.Meta.Threshold != 0.7 || rec.Meta.Required != 100 || rec.Meta.K != 3 {
		t.Errorf("recovered meta = %+v", rec.Meta)
	}
	if len(rec.Edits) != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovered %d edits, torn %d", len(rec.Edits), rec.TornBytes)
	}
	if rec.Edits[0].Op != "setR" || rec.Edits[0].Net != "drv" || *rec.Edits[0].R != 5 {
		t.Errorf("edit 0 = %+v", rec.Edits[0])
	}
}

func TestRotateRetiresOldPair(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x1", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdits()); err != nil {
		t.Fatal(err)
	}
	const newDeck = testDeck + "* rotated\n"
	if err := l.Rotate([]byte(newDeck), 2); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || l.Seq() != 2 {
		t.Fatalf("after rotate: pending %d seq %d", l.Pending(), l.Seq())
	}
	// New appends land in the new log; old pair is gone.
	if err := l.Append(testEdits()[:1]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	dir := filepath.Join(st.Dir(), "x1")
	if _, err := os.Stat(filepath.Join(dir, "snap.1.ckt")); !os.IsNotExist(err) {
		t.Error("old snapshot survived rotation")
	}
	rec, l2, err := st.Recover("x1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != newDeck || len(rec.Edits) != 1 || rec.Meta.Edits != 2 {
		t.Errorf("post-rotate recovery: deck %q, %d edits, meta %+v", rec.Deck, len(rec.Edits), rec.Meta)
	}
}

// TestTornTailDropped simulates a crash mid-append: the log ends with a
// partial record, which recovery must drop (and truncate away) while keeping
// every complete record.
func TestTornTailDropped(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x2", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdits()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	logPath := filepath.Join(st.Dir(), "x2", "wal.1.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("setR drv.o 9") // no newline: torn
	f.Close()

	rec, l2, err := st.Recover("x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Edits) != 2 || rec.TornBytes == 0 {
		t.Fatalf("recovered %d edits, torn %d", len(rec.Edits), rec.TornBytes)
	}
	// The torn bytes are gone from disk; appends resume at a record boundary.
	if err := l2.Append(testEdits()[:1]); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rec2, l3, err := st.Recover("x2")
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
	if len(rec2.Edits) != 3 || rec2.TornBytes != 0 {
		t.Fatalf("second recovery: %d edits, torn %d", len(rec2.Edits), rec2.TornBytes)
	}
}

// TestCorruptLineFailsLoudly: a complete-but-unparseable line is corruption,
// not a torn write; recovery must refuse rather than silently skip edits.
func TestCorruptLineFailsLoudly(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x3", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(testEdits())
	l.Close()
	logPath := filepath.Join(st.Dir(), "x3", "wal.1.log")
	f, _ := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("zorch drv.o 9\n")
	f.Close()
	if _, _, err := st.Recover("x3"); err == nil {
		t.Fatal("corrupt log recovered silently")
	}
}

// TestInterruptedRotation: a crash after the new snapshot's rename but
// before the meta rewrite leaves both pairs on disk with meta naming the old
// one. Recovery must pick the newer snapshot (a superset of the old pair)
// and retire the stale files.
func TestInterruptedRotation(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x4", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(testEdits())
	l.Close()
	dir := filepath.Join(st.Dir(), "x4")
	const newDeck = testDeck + "* newer\n"
	// Hand-craft the crash window: snap.2 committed, meta still at seq 1.
	if err := os.WriteFile(filepath.Join(dir, "snap.2.ckt"), []byte(newDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "snap.3.ckt.tmp"), []byte("garbage"), 0o644)

	rec, l2, err := st.Recover("x4")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Deck != newDeck || len(rec.Edits) != 0 {
		t.Fatalf("recovery picked deck %q with %d edits, want newer snapshot with none", rec.Deck, len(rec.Edits))
	}
	if l2.Seq() != 2 {
		t.Errorf("live seq = %d, want 2", l2.Seq())
	}
	for _, stale := range []string{"snap.1.ckt", "wal.1.log", "snap.3.ckt.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("stale file %s survived recovery", stale)
		}
	}
}

func TestMissingNamedSnapshotErrors(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x5", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(st.Dir(), "x5", "snap.1.ckt")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover("x5"); err == nil {
		t.Fatal("recovery invented a snapshot")
	}
}

func TestRemove(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x6", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := st.Remove("x6"); err != nil {
		t.Fatal(err)
	}
	if st.Exists("x6") {
		t.Error("Exists after Remove")
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Errorf("List after Remove = %v", ids)
	}
}

func TestBadIDsRejected(t *testing.T) {
	st, _ := Open(t.TempDir())
	for _, id := range []string{"", "../evil", "a/b", "a b", strings.Repeat("x", 200)} {
		if _, err := st.Create(id, testDeck, Meta{}); err == nil {
			t.Errorf("Create(%q) accepted", id)
		}
		if st.Exists(id) {
			t.Errorf("Exists(%q) = true", id)
		}
	}
}

// TestAppendRefusesUnreplayable: a hand-assembled edit with a missing value
// renders as a line a reparse rejects; the log must refuse it up front
// rather than poison recovery.
func TestAppendRefusesUnreplayable(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x7", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]timing.Edit{{Op: "setR", Net: "drv", Node: "o"}}); err == nil {
		t.Fatal("unreplayable edit appended")
	}
	if l.Pending() != 0 {
		t.Errorf("pending = %d after refused append", l.Pending())
	}
	// The refused append must not have written anything: recovery is clean.
	rec, l2, err := st.Recover("x7")
	if err != nil || len(rec.Edits) != 0 {
		t.Fatalf("recovery after refused append: %v, %d edits", err, len(rec.Edits))
	}
	l2.Close()
}

// TestAppendPoisonedAfterWriteError checks that a failed write poisons the
// log: the next Append is refused without writing, recovery returns exactly
// the edits appended before the failure, and a Rotate heals the log.
func TestAppendPoisonedAfterWriteError(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x9", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	before := testEdits()[:1]
	if err := l.Append(before); err != nil {
		t.Fatal(err)
	}
	good := l.f
	ro, err := os.Open(good.Name())
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	werr := l.Append(testEdits()[1:])
	if werr == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	l.f = good
	ro.Close()
	if err := l.Append(testEdits()[1:]); !errors.Is(err, werr) {
		t.Fatalf("append after a write failure: %v, want the sticky %v", err, werr)
	}
	if l.Pending() != len(before) {
		t.Fatalf("pending = %d, want %d", l.Pending(), len(before))
	}
	l.Close()

	rec, l2, err := st.Recover("x9")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, want := timing.FormatEdits(rec.Edits), timing.FormatEdits(before); got != want || rec.TornBytes != 0 {
		t.Fatalf("recovered %q (torn %d), want %q", got, rec.TornBytes, want)
	}

	// Rotation opens a fresh log, which takes appends again.
	l2.err = werr
	if err := l2.Rotate([]byte(testDeck), len(before)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testEdits()[1:]); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
}

// dirSync is one recorded syncDir call: its target and which of the
// design's files existed when it ran.
type dirSync struct {
	dir       string
	designDir bool // the design directory existed
	log, meta bool // wal.1.log and meta.json existed in it
}

// recordSyncDir swaps the syncDir seam for a recorder of its calls about
// design id under root, and restores it when the test ends.
func recordSyncDir(t *testing.T, root, id string) *[]dirSync {
	t.Helper()
	var calls []dirSync
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	design := filepath.Join(root, id)
	prev := syncDir
	syncDir = func(dir string) error {
		calls = append(calls, dirSync{
			dir:       dir,
			designDir: exists(design),
			log:       exists(filepath.Join(design, logName(1))),
			meta:      exists(filepath.Join(design, "meta.json")),
		})
		return nil
	}
	t.Cleanup(func() { syncDir = prev })
	return &calls
}

// TestCreateAndRemoveSyncDirectories: a design Create returns is durable
// in full, and one Remove retires stays retired. Create fsyncs the store
// root once the design directory exists, and fsyncs the design directory
// once the live log and meta.json are both in it, so neither the design
// nor its log's entry can vanish in a crash after the 201. Remove fsyncs
// the root after the directory is gone. The snapshot holds the deck
// byte for byte.
func TestCreateAndRemoveSyncDirectories(t *testing.T) {
	root := t.TempDir()
	st, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	calls := recordSyncDir(t, root, "d1")
	const posted = "* as posted\r\n.design d\r\n.net drv\r\n.input in\r\nr1 in o 1k\r\nC1 o 0 2\r\n.output o\r\n.endnet\r\n.end\r\n"
	l, err := st.Create("d1", posted, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var rootSynced, designSynced bool
	for _, c := range *calls {
		rootSynced = rootSynced || c.dir == root && c.designDir
		designSynced = designSynced || c.dir == filepath.Join(root, "d1") && c.log && c.meta
	}
	if !rootSynced {
		t.Errorf("Create never fsynced the store root after making the design directory: %+v", *calls)
	}
	if !designSynced {
		t.Errorf("Create never fsynced the design directory holding both the live log and meta.json: %+v", *calls)
	}
	snap, err := os.ReadFile(filepath.Join(root, "d1", snapName(1)))
	if err != nil || string(snap) != posted {
		t.Errorf("snapshot 1 = %q (%v), want the deck as posted", snap, err)
	}

	*calls = nil
	if err := st.Remove("d1"); err != nil {
		t.Fatal(err)
	}
	removed := false
	for _, c := range *calls {
		removed = removed || c.dir == root && !c.designDir
	}
	if !removed {
		t.Errorf("Remove never fsynced the store root after deleting the design: %+v", *calls)
	}
}

// TestDirectoryFsyncErrors: a directory fsync that fails with EIO fails
// Create, Remove, writeMeta and Rotate; the failed Create leaves no design
// behind, and the failed Rotate leaves the log on its old pair, refusing
// appends until a Rotate succeeds. A filesystem that refuses directory
// fsync (EINVAL, ENOTSUP) fails none of them.
func TestDirectoryFsyncErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		errno syscall.Errno
		fail  bool
	}{
		{"EIO", syscall.EIO, true},
		{"EINVAL", syscall.EINVAL, false},
		{"ENOTSUP", syscall.ENOTSUP, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := Open(t.TempDir())
			l, err := st.Create("x1", testDeck, Meta{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(testEdits()); err != nil {
				t.Fatal(err)
			}
			doomed, err := st.Create("x2", testDeck, Meta{})
			if err != nil {
				t.Fatal(err)
			}
			doomed.Close()

			prev := syncDir
			syncDir = func(dir string) error { return &os.PathError{Op: "sync", Path: dir, Err: tc.errno} }
			defer func() { syncDir = prev }()
			check := func(op string, err error) {
				t.Helper()
				if tc.fail && !errors.Is(err, tc.errno) || !tc.fail && err != nil {
					t.Errorf("%s under a directory fsync failing with %s: %v", op, tc.name, err)
				}
			}
			l3, err := st.Create("x3", testDeck, Meta{})
			check("Create", err)
			if l3 != nil {
				l3.Close()
			}
			if _, err := os.Stat(filepath.Join(st.Dir(), "x3")); tc.fail != os.IsNotExist(err) {
				t.Errorf("design directory after Create (failed: %v): stat error %v", tc.fail, err)
			}
			check("Remove", st.Remove("x2"))
			check("writeMeta", writeMeta(filepath.Join(st.Dir(), "x1"), l.meta))
			const rotated = testDeck + "* rotated\n"
			check("Rotate", l.Rotate([]byte(rotated), 2))
			if tc.fail {
				// The failed Rotate stays on the old pair, but recovery
				// would prefer the renamed snapshot 2 to it, so the log
				// refuses appends until a Rotate succeeds.
				if l.Seq() != 1 {
					t.Fatalf("a failed Rotate switched to seq %d", l.Seq())
				}
				if err := l.Append(testEdits()[:1]); !errors.Is(err, tc.errno) {
					t.Fatalf("append after a failed Rotate = %v, want the fsync error", err)
				}
				syncDir = prev
				if err := l.Rotate([]byte(rotated), 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Append(testEdits()[:1]); err != nil {
				t.Fatalf("append after Rotate: %v", err)
			}
			syncDir = prev
			rec, l2, err := st.Recover("x1")
			if err != nil {
				t.Fatal(err)
			}
			l2.Close()
			if rec.Meta.Seq != 2 || rec.Deck != rotated || len(rec.Edits) != 1 {
				t.Errorf("recovered seq %d with %d edits, want the rotated snapshot 2 with 1", rec.Meta.Seq, len(rec.Edits))
			}
		})
	}
}

// TestRecoverRefusesMissingCommittedLog: meta.json commits a sequence only
// after its log exists, so a committed sequence without its log has lost
// acknowledged edits. Recovery must say so instead of replaying nothing.
func TestRecoverRefusesMissingCommittedLog(t *testing.T) {
	st, _ := Open(t.TempDir())
	l, err := st.Create("x7", testDeck, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testEdits()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(st.Dir(), "x7", logName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover("x7"); err == nil || !strings.Contains(err.Error(), "live log") {
		t.Fatalf("Recover of a committed sequence without its log = %v, want a missing-log error", err)
	}
}
