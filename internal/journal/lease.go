package journal

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The coordinator lease: a stale-breaking lock file that elects the
// active coordinator. Exactly one process holds the lease file; while
// held, its mtime is refreshed at a third of the TTL, so only a lease
// whose owner actually died goes a full TTL without a touch. A standby
// blocks in AwaitLease, polling the file's age, and breaks a stale
// lease by renaming it to a name it owns — rename is atomic, so exactly
// one contender wins the steal and adopts the journal directory.

// leaseFileName is the coordinator lease file inside the journal dir.
const leaseFileName = "coordinator.lease"

// Lease is a held coordinator lease. Release it on shutdown so a
// standby can take over immediately instead of waiting out the TTL.
type Lease struct {
	path  string
	token string
	ttl   time.Duration
	stop  chan struct{}
	once  sync.Once
}

// AcquireLease blocks until this process holds the coordinator lease
// for the journal directory or ctx ends. ttl <= 0 means 15s. A lease
// untouched for a full TTL is considered abandoned and broken.
func (j *Journal) AcquireLease(ctx context.Context, ttl time.Duration) (*Lease, error) {
	return j.acquireLease(ctx, ttl, false)
}

// AwaitLease is the standby variant of AcquireLease: it refuses to
// create a lease from nothing and instead waits for an active
// coordinator's lease to appear, taking over only once that lease goes
// stale (the active died) or is released (graceful shutdown). This
// keeps a standby that boots faster than its active from winning the
// initial election — without it, role assignment on a fresh journal
// directory would be a startup race.
func (j *Journal) AwaitLease(ctx context.Context, ttl time.Duration) (*Lease, error) {
	return j.acquireLease(ctx, ttl, true)
}

func (j *Journal) acquireLease(ctx context.Context, ttl time.Duration, standby bool) (*Lease, error) {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	path := filepath.Join(j.dir, leaseFileName)
	token := fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano())
	poll := ttl / 8
	if poll < 20*time.Millisecond {
		poll = 20 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	// A standby may only create the lease file after observing an
	// active's lease at least once; until then it just watches.
	seen := !standby
	for {
		if seen {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err == nil {
				_, werr := f.WriteString(token)
				cerr := f.Close()
				if werr != nil || cerr != nil {
					os.Remove(path)
					if werr == nil {
						werr = cerr
					}
					return nil, fmt.Errorf("journal: writing coordinator lease: %w", werr)
				}
				l := &Lease{path: path, token: token, ttl: ttl, stop: make(chan struct{})}
				go l.refresh()
				return l, nil
			}
			if !errors.Is(err, fs.ErrExist) {
				return nil, fmt.Errorf("journal: acquiring coordinator lease: %w", err)
			}
		}
		if fi, serr := os.Stat(path); serr == nil {
			seen = true
			if time.Since(fi.ModTime()) > ttl {
				// Break the abandoned lease by renaming it to a name we own:
				// rename is atomic, so exactly one contender wins and the
				// losers retry against whatever lease exists next. A plain
				// Remove could delete a fresh lease created by a faster
				// contender between the Stat and the Remove.
				stolen := fmt.Sprintf("%s.stale-%d-%d", path, os.Getpid(), time.Now().UnixNano())
				if os.Rename(path, stolen) == nil {
					os.Remove(stolen)
				}
				continue
			}
		} else if seen && errors.Is(serr, fs.ErrNotExist) {
			// The lease we were watching was released; contend for it now.
			continue
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// refresh keeps the held lease fresh: an mtime touch every ttl/3, so
// two touches can be lost (scheduling stalls, slow disk) before a
// standby sees a full TTL of staleness and breaks the lease.
func (l *Lease) refresh() {
	ticker := time.NewTicker(l.ttl / 3)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			os.Chtimes(l.path, now, now)
		case <-l.stop:
			return
		}
	}
}

// Release drops the lease. The file is removed only while it still
// carries this holder's token: a holder whose lease was stolen (it
// stalled past the TTL) must not delete the thief's fresh lease.
// Safe to call more than once.
func (l *Lease) Release() {
	l.once.Do(func() {
		close(l.stop)
		if data, err := os.ReadFile(l.path); err == nil && string(data) == l.token {
			os.Remove(l.path)
		}
	})
}
