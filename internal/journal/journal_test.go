package journal

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustCreate(t *testing.T, j *Journal, id string) *Writer {
	t.Helper()
	w, err := j.Create(id, json.RawMessage(`{"points":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCreateAppendReadRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := mustCreate(t, j, "c1")
	frames := []struct {
		kind string
		data string
	}{
		{KindResult, `{"seq":1,"index":0}`},
		{KindTrace, `{"seq":2,"trace":true}`},
		{KindResult, `{"seq":3,"index":2}`},
		{KindDone, `{"seq":4,"done":true}`},
	}
	for i, f := range frames {
		if err := w.Append(uint64(i+1), f.kind, json.RawMessage(f.data)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Seq() != 4 {
		t.Fatalf("writer seq %d, want 4", w.Seq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Read("c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("%d records, want 5", len(recs))
	}
	if recs[0].Kind != KindCreate || recs[0].Seq != 0 {
		t.Fatalf("record 0 = %+v, want create seq 0", recs[0])
	}
	for i, f := range frames {
		r := recs[i+1]
		if r.Kind != f.kind || r.Seq != uint64(i+1) || string(r.Data) != f.data {
			t.Fatalf("record %d = %+v, want kind %s data %s", i+1, r, f.kind, f.data)
		}
	}
	if !TerminalKind(recs[4].Kind) {
		t.Fatal("done record not terminal")
	}
	ids, err := j.List()
	if err != nil || len(ids) != 1 || ids[0] != "c1" {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	j, _ := Open(t.TempDir())
	w := mustCreate(t, j, "dup")
	defer w.Close()
	if _, err := j.Create("dup", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
}

func TestBadIDsRejected(t *testing.T) {
	j, _ := Open(t.TempDir())
	for _, id := range []string{"", "a/b", "a b", strings.Repeat("x", 65), "évil"} {
		if _, err := j.Create(id, nil); err == nil {
			t.Fatalf("ID %q accepted", id)
		}
	}
}

// TestTornTailDiscarded is the crash-recovery contract: a final line
// torn by kill -9 (no newline, or a newline with malformed JSON) is
// discarded, not fatal, and Reopen truncates it so later appends
// continue a clean journal.
func TestTornTailDiscarded(t *testing.T) {
	for _, tail := range []string{
		`{"seq":3,"kind":"res`,                // torn mid-line, no newline
		`{"seq":3,"kind":"result","da` + "\n", // newline landed, JSON did not
		"\n",                                  // bare newline
		`{"seq":7,"kind":"result"}` + "\n",    // complete JSON, impossible seq
	} {
		j, _ := Open(t.TempDir())
		w := mustCreate(t, j, "c")
		for i := 1; i <= 2; i++ {
			if err := w.Append(uint64(i), KindResult, json.RawMessage(`{"i":1}`)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		path := filepath.Join(j.Dir(), "c.journal")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		recs, err := j.Read("c")
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if len(recs) != 3 {
			t.Fatalf("tail %q: %d records, want 3", tail, len(recs))
		}
		w2, recs2, err := j.Reopen("c")
		if err != nil {
			t.Fatalf("tail %q: reopen: %v", tail, err)
		}
		if len(recs2) != 3 || w2.Seq() != 2 {
			t.Fatalf("tail %q: reopen %d records seq %d", tail, len(recs2), w2.Seq())
		}
		if err := w2.Append(3, KindDone, json.RawMessage(`{"done":true}`)); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		recs, err = j.Read("c")
		if err != nil || len(recs) != 4 || recs[3].Kind != KindDone {
			t.Fatalf("tail %q: after reopen-append: %d records, %v", tail, len(recs), err)
		}
	}
}

func TestMidFileCorruptionFatal(t *testing.T) {
	j, _ := Open(t.TempDir())
	w := mustCreate(t, j, "c")
	w.Append(1, KindResult, json.RawMessage(`{"i":1}`))
	w.Close()
	path := filepath.Join(j.Dir(), "c.journal")
	data, _ := os.ReadFile(path)
	// Corrupt the create record: the damage is not at the tail, so the
	// journal is genuinely broken and must not be silently truncated.
	data[0] = 'X'
	os.WriteFile(path, data, 0o644)
	if _, err := j.Read("c"); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

func TestAppendSeqMustBeContiguous(t *testing.T) {
	j, _ := Open(t.TempDir())
	w := mustCreate(t, j, "c")
	defer w.Close()
	if err := w.Append(2, KindResult, nil); err == nil {
		t.Fatal("gap in seq accepted")
	}
	if err := w.Append(1, KindResult, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, KindResult, nil); err == nil {
		t.Fatal("duplicate seq accepted")
	}
}

func TestPeersRoundTrip(t *testing.T) {
	j, _ := Open(t.TempDir())
	if urls, err := j.LoadPeers(); err != nil || urls != nil {
		t.Fatalf("fresh dir: %v, %v", urls, err)
	}
	want := []string{"http://w1:8080", "http://w2:8080"}
	if err := j.SavePeers(want); err != nil {
		t.Fatal(err)
	}
	got, err := j.LoadPeers()
	if err != nil || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("LoadPeers = %v, %v", got, err)
	}
}

func TestLeaseExclusionReleaseAndSteal(t *testing.T) {
	j, _ := Open(t.TempDir())
	l1, err := j.AcquireLease(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// A contender cannot acquire a fresh lease.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := j.AcquireLease(ctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second acquire: %v, want deadline exceeded", err)
	}
	// Release hands it over immediately.
	l1.Release()
	l2, err := j.AcquireLease(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()
	l2.Release() // idempotent

	// A stale lease (owner died; mtime a full TTL old) is broken.
	path := filepath.Join(j.Dir(), leaseFileName)
	if err := os.WriteFile(path, []byte("dead-owner"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	os.Chtimes(path, old, old)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	l3, err := j.AcquireLease(ctx2, time.Second)
	if err != nil {
		t.Fatalf("stale lease not broken: %v", err)
	}
	l3.Release()
}

// TestAwaitLeaseDefersToActive: a standby must never win the initial
// election on a fresh journal directory — AwaitLease creates nothing
// until it has observed an active's lease, then takes over on release
// (and, via the shared stale-breaking path, on expiry).
func TestAwaitLeaseDefersToActive(t *testing.T) {
	j, _ := Open(t.TempDir())

	// Empty directory: the standby waits instead of electing itself.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := j.AwaitLease(ctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("standby acquired a lease on an empty dir: %v", err)
	}

	// Once an active holds the lease and releases it, the standby —
	// having observed the lease — takes over promptly.
	active, err := j.AcquireLease(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Lease, 1)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	go func() {
		l, err := j.AwaitLease(ctx2, time.Minute)
		if err != nil {
			t.Errorf("standby takeover: %v", err)
		}
		done <- l
	}()
	time.Sleep(100 * time.Millisecond) // let the standby observe the active's lease
	active.Release()
	select {
	case l := <-done:
		if l != nil {
			l.Release()
		}
	case <-ctx2.Done():
		t.Fatal("standby never adopted a released lease")
	}
}

// TestLeaseRefreshPreventsSteal holds a short-TTL lease across several
// TTLs: the refresher's mtime touches must keep a contender from ever
// seeing it stale.
func TestLeaseRefreshPreventsSteal(t *testing.T) {
	j, _ := Open(t.TempDir())
	l, err := j.AcquireLease(context.Background(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Millisecond)
	defer cancel()
	if _, err := j.AcquireLease(ctx, 300*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("contender stole a refreshed lease: %v", err)
	}
}

// FuzzJournalRead writes arbitrary bytes as a journal and reads them
// back the way recovery and the cache loader do. Neither Read nor
// Reopen may panic; a journal Read accepts starts with its create
// record and numbers records 0..n; Reopen agrees with Read, and after
// one Append, Read returns the same records plus the new one. The
// seeds are a campaign journal, a cache log, a torn tail and an empty
// file.
func FuzzJournalRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(j.Dir(), "f"+journalExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := j.Read("f")
		if err != nil {
			if _, _, rerr := j.Reopen("f"); rerr == nil {
				t.Fatalf("Reopen accepted a journal Read refused (%v)", err)
			}
			return
		}
		if recs[0].Kind != KindCreate {
			t.Fatalf("record 0 is %q, want %q", recs[0].Kind, KindCreate)
		}
		for i, r := range recs {
			if r.Seq != uint64(i) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
		w, reopened, err := j.Reopen("f")
		if err != nil {
			t.Fatalf("Reopen refused a journal Read accepted: %v", err)
		}
		if !reflect.DeepEqual(reopened, recs) {
			t.Fatalf("Reopen read %+v, Read %+v", reopened, recs)
		}
		next := Record{Seq: uint64(len(recs)), Kind: KindResult, Data: json.RawMessage(`{"seq":1}`)}
		if err := w.Append(next.Seq, next.Kind, next.Data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := j.Read("f")
		if err != nil {
			t.Fatalf("Read after Append: %v", err)
		}
		if want := append(recs, next); !reflect.DeepEqual(after, want) {
			t.Fatalf("Read after Append = %+v, want %+v", after, want)
		}
	})
}
