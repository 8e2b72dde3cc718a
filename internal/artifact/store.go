package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"oic/internal/fault"
)

// Ext is the on-disk artifact file extension.
const Ext = ".oica"

// Retry policy for transient read failures: a Get re-reads up to
// MaxReadRetries times with exponential backoff plus full jitter before
// giving up. Missing entries and decode failures are terminal outcomes,
// never retried.
const (
	MaxReadRetries = 3
	retryBaseDelay = 2 * time.Millisecond
)

// Store is a content-addressed on-disk artifact catalogue: one file per
// compiled engine, named by the hash of (config fingerprint, format
// version), so equivalent configurations share an entry and a format bump
// can never alias an old layout. All methods are safe for concurrent use;
// writes go through a temp-file rename so readers never observe a
// partial artifact.
type Store struct {
	dir    string
	faults *fault.Injector       // nil-safe deterministic fault injection
	sleep  func(d time.Duration) // test seam; nil means time.Sleep

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	writes  atomic.Int64
	retries atomic.Int64
}

// StoreStats is a point-in-time snapshot of the store's accounting.
type StoreStats struct {
	Hits    int64 // Get found and decoded an entry
	Misses  int64 // Get found no entry
	Corrupt int64 // entries that failed decode/validation and were dropped
	Writes  int64 // successful Puts
	Retries int64 // transient read failures absorbed by the retry loop
}

// OpenStore opens (creating if needed) the artifact store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: OpenStore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: OpenStore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetFaults installs (or clears, with nil) a deterministic fault injector
// on the store's I/O sites (fault.SiteArtifactRead / SiteArtifactWrite).
// Call before handing the store to concurrent users.
func (s *Store) SetFaults(inj *fault.Injector) { s.faults = inj }

// Path returns the entry path for a config fingerprint under the current
// format version.
func (s *Store) Path(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint + "|v" + fmt.Sprint(Version)))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+Ext)
}

// Get looks the fingerprint up. A missing entry returns (nil, nil) and
// counts a miss; a transient read failure is retried up to MaxReadRetries
// times with jittered exponential backoff (each absorbed failure counts a
// retry) before surfacing; a present entry that fails to decode or
// validate counts as corrupt, is removed so it cannot poison future
// lookups, and returns the decode error; a healthy entry counts a hit.
func (s *Store) Get(fingerprint string) (*Artifact, error) {
	path := s.Path(fingerprint)
	var b []byte
	for attempt := 0; ; attempt++ {
		var err error
		b, err = s.readFile(path)
		if err == nil {
			break
		}
		if os.IsNotExist(err) {
			s.misses.Add(1)
			return nil, nil
		}
		if attempt >= MaxReadRetries {
			s.corrupt.Add(1)
			return nil, fmt.Errorf("artifact: store get (after %d retries): %w", attempt, err)
		}
		s.retries.Add(1)
		s.backoff(attempt)
	}
	a, err := Decode(b)
	if err != nil {
		s.corrupt.Add(1)
		os.Remove(path)
		return nil, fmt.Errorf("artifact: store entry %s: %w", filepath.Base(path), err)
	}
	s.hits.Add(1)
	return a, nil
}

// readFile is one read attempt through the fault-injection site.
func (s *Store) readFile(path string) ([]byte, error) {
	if err := s.faults.Hit(fault.SiteArtifactRead); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// backoff sleeps retryBaseDelay·2^attempt plus a full-jitter term of the
// same magnitude, decorrelating concurrent retriers.
func (s *Store) backoff(attempt int) {
	d := retryBaseDelay << attempt
	d += time.Duration(rand.Int63n(int64(d)))
	if s.sleep != nil {
		s.sleep(d)
		return
	}
	time.Sleep(d)
}

// MarkCorrupt drops an entry the caller found inconsistent after a
// successful decode (e.g. its embedded fingerprint does not match the
// lookup key) and counts it.
func (s *Store) MarkCorrupt(fingerprint string) {
	s.corrupt.Add(1)
	os.Remove(s.Path(fingerprint))
}

// Put encodes and persists the artifact under the fingerprint. The write
// is atomic (temp file + rename), so a concurrent Get sees either the old
// entry or the complete new one.
func (s *Store) Put(fingerprint string, a *Artifact) error {
	b, err := Encode(a)
	if err != nil {
		return err
	}
	if err := s.faults.Hit(fault.SiteArtifactWrite); err != nil {
		return fmt.Errorf("artifact: store put: %w", err)
	}
	path := s.Path(fingerprint)
	tmp, err := os.CreateTemp(s.dir, "put-*"+Ext+".tmp")
	if err != nil {
		return fmt.Errorf("artifact: store put: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: store put: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Files lists the store's entry paths in sorted order (preload iterates
// this catalogue).
func (s *Store) Files() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: store list: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		out = append(out, filepath.Join(s.dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// Stats snapshots the store's hit/miss/corrupt/write counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Writes:  s.writes.Load(),
		Retries: s.retries.Load(),
	}
}
