// Package store is an on-disk content-addressed result store: the
// persistent cache of experiment results across processes (the runner
// keeps no scenario result past its batch). Keys
// are arbitrary strings (the experiment layer derives them from
// experiment ID + options + a code-revision namespace); entries are
// opaque payload bytes wrapped in a checksummed envelope. The store is
// defensive by construction: writes are atomic (temp file + rename
// within the store directory), reads re-verify the payload checksum and
// the full key, and anything that fails validation — truncation, bit
// flips, a colliding path from a different key, a future format version
// — is discarded and counted as corrupt rather than returned. A corrupt
// or stale cache can therefore cost a recompute, never a wrong result.
//
// The store has no size budget and never evicts: the experiment layer
// writes about one sweep's results (under 2 MB) per code-revision
// namespace, and the directory is safe to delete at any time — a missing
// entry is a recompute. All activity is observable through obs counters
// (<prefix>.hits/misses/writes/corrupt when a metrics prefix is
// configured).
//
// Concurrent use within a process is safe (one mutex); concurrent use
// across processes sharing a directory is safe because entries are
// immutable once renamed into place.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"athena/internal/obs"
)

// entryVersion is the on-disk envelope format version. Readers reject
// any other version as corrupt (a downgrade must recompute, not
// misparse).
const entryVersion = 1

// entryMagic is the first header line of every entry file.
const entryMagic = "athena-store"

// entrySuffix names entry files; everything else in the directory is
// ignored, so a store can live inside a directory that also holds
// manifests or notes.
const entrySuffix = ".entry"

// Config tunes Open.
type Config struct {
	// Metrics, when non-empty, registers the store's counters in the
	// global obs registry under <Metrics>.hits, .misses, .writes and
	// .corrupt. Leave empty for private (test) stores.
	Metrics string
}

// Store is one on-disk result store rooted at a directory. Create with
// Open; the zero value is not usable.
type Store struct {
	dir     string
	metrics string

	mu  sync.Mutex
	met storeMetrics
}

// storeMetrics holds the store's instrumentation as value types, so
// private stores get working Stats without touching the global
// registry. Counters accumulate only while obs recording is enabled
// (see obs.Enable), matching the runner pool's convention.
type storeMetrics struct {
	hits    obs.Counter
	misses  obs.Counter
	writes  obs.Counter
	corrupt obs.Counter
}

// Stats is a point-in-time read of the store's counters.
type Stats struct {
	Hits    int64 `json:"hits"`    // Get calls that returned a validated payload
	Misses  int64 `json:"misses"`  // Get calls with no (valid) entry
	Writes  int64 `json:"writes"`  // Put calls that renamed an entry into place
	Corrupt int64 `json:"corrupt"` // entries discarded because validation failed
}

// Stats reads the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.met.hits.Value(),
		Misses:  s.met.misses.Value(),
		Writes:  s.met.writes.Value(),
		Corrupt: s.met.corrupt.Value(),
	}
}

// Open creates (if needed) and opens the store rooted at dir.
func Open(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, metrics: cfg.Metrics}
	if cfg.Metrics != "" {
		obs.RegisterCounter(cfg.Metrics+".hits", &s.met.hits)
		obs.RegisterCounter(cfg.Metrics+".misses", &s.met.misses)
		obs.RegisterCounter(cfg.Metrics+".writes", &s.met.writes)
		obs.RegisterCounter(cfg.Metrics+".corrupt", &s.met.corrupt)
	}
	return s, nil
}

// Close unregisters the store's metrics (if any were registered). The
// store must not be used afterwards.
func (s *Store) Close() {
	if s.metrics != "" {
		obs.UnregisterPrefix(s.metrics + ".")
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file: two-level fan-out on the hex
// SHA-256 of the key, so directories stay small and keys need no
// escaping.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:]+entrySuffix)
}

// encodeEntry wraps a payload in the envelope:
//
//	athena-store <version>\n
//	key <length> <key bytes>\n
//	sha256 <hex of payload>\n
//	len <payload length>\n
//	\n
//	<payload bytes>
//
// The key is length-prefixed so keys containing newlines round-trip.
func encodeEntry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d\n", entryMagic, entryVersion)
	fmt.Fprintf(&b, "key %d %s\n", len(key), key)
	fmt.Fprintf(&b, "sha256 %s\n", hex.EncodeToString(sum[:]))
	fmt.Fprintf(&b, "len %d\n\n", len(payload))
	b.Write(payload)
	return b.Bytes()
}

// decodeEntry parses and validates an envelope, returning the key and
// payload. Any structural defect, version skew, length mismatch or
// checksum failure returns an error; it never panics on arbitrary
// input (see FuzzDecodeEntry).
func decodeEntry(data []byte) (key string, payload []byte, err error) {
	line := func() (string, error) {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return "", fmt.Errorf("store entry: truncated header")
		}
		l := string(data[:i])
		data = data[i+1:]
		return l, nil
	}
	magic, err := line()
	if err != nil {
		return "", nil, err
	}
	if magic != fmt.Sprintf("%s %d", entryMagic, entryVersion) {
		return "", nil, fmt.Errorf("store entry: bad magic %q", magic)
	}
	// key <length> <key...>: the key may itself contain newlines, so it
	// cannot be read line-wise — consume exactly <length> bytes.
	if !bytes.HasPrefix(data, []byte("key ")) {
		return "", nil, fmt.Errorf("store entry: missing key header")
	}
	data = data[len("key "):]
	sp := bytes.IndexByte(data, ' ')
	if sp < 0 {
		return "", nil, fmt.Errorf("store entry: malformed key header")
	}
	klen, err := strconv.Atoi(string(data[:sp]))
	if err != nil || klen < 0 || klen > len(data)-sp-1 {
		return "", nil, fmt.Errorf("store entry: bad key length")
	}
	key = string(data[sp+1 : sp+1+klen])
	data = data[sp+1+klen:]
	if len(data) == 0 || data[0] != '\n' {
		return "", nil, fmt.Errorf("store entry: unterminated key")
	}
	data = data[1:]
	sumLine, err := line()
	if err != nil {
		return "", nil, err
	}
	var wantSum string
	if _, err := fmt.Sscanf(sumLine, "sha256 %64s", &wantSum); err != nil || len(sumLine) != len("sha256 ")+64 {
		return "", nil, fmt.Errorf("store entry: bad checksum header %q", sumLine)
	}
	lenLine, err := line()
	if err != nil {
		return "", nil, err
	}
	var plen int
	if _, err := fmt.Sscanf(lenLine, "len %d", &plen); err != nil || plen < 0 {
		return "", nil, fmt.Errorf("store entry: bad length header %q", lenLine)
	}
	blank, err := line()
	if err != nil {
		return "", nil, err
	}
	if blank != "" {
		return "", nil, fmt.Errorf("store entry: missing blank separator")
	}
	if len(data) != plen {
		return "", nil, fmt.Errorf("store entry: payload length %d, header says %d", len(data), plen)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != wantSum {
		return "", nil, fmt.Errorf("store entry: checksum mismatch")
	}
	return key, data, nil
}

// decodeEntryStrict additionally rejects inputs that parse but are not
// byte-identical to what encodeEntry would emit (e.g. zero-padded
// length fields): only canonical entries are ever trusted.
func decodeEntryStrict(data []byte) (key string, payload []byte, err error) {
	key, payload, err = decodeEntry(data)
	if err != nil {
		return "", nil, err
	}
	if !bytes.Equal(encodeEntry(key, payload), data) {
		return "", nil, fmt.Errorf("store entry: non-canonical encoding")
	}
	return key, payload, nil
}

// Get returns the validated payload stored under key, or ok=false on a
// miss. A file that exists but fails validation — wrong version,
// truncated, bit-flipped, or written for a different key that hashed to
// the same path — is deleted, counted under the corrupt counter, and
// reported as a miss: the caller recomputes instead of trusting it.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.met.misses.Inc()
		return nil, false
	}
	gotKey, payload, err := decodeEntryStrict(data)
	if err != nil || gotKey != key {
		s.discardLocked(p)
		s.met.misses.Inc()
		return nil, false
	}
	s.met.hits.Inc()
	return payload, true
}

// Put stores payload under key, atomically: the entry is written to a
// temp file in the store directory and renamed into place, so a crash
// mid-write leaves either the old entry or none, and concurrent readers
// (including other processes) never observe a partial file.
func (s *Store) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data := encodeEntry(key, payload)
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.met.writes.Inc()
	return nil
}

// Invalidate removes the entry stored under key and counts it as
// corrupt. The experiment layer calls this when an entry passed the
// byte-level checksum but failed semantic validation (the re-rendered
// figure did not reproduce the recorded digest).
func (s *Store) Invalidate(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.discardLocked(s.path(key))
}

// discardLocked deletes a failed entry and counts it.
func (s *Store) discardLocked(path string) {
	if os.Remove(path) == nil {
		s.met.corrupt.Inc()
	}
}

// Len reports the number of entry files.
func (s *Store) Len() int {
	n, _ := s.scan()
	return n
}

// Size reports the total bytes across entry files.
func (s *Store) Size() int64 {
	_, size := s.scan()
	return size
}

// scan counts the entry files under the store root and sums their
// sizes. Called rarely (Len, Size), so it re-walks rather than caching.
func (s *Store) scan() (n int, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	subs, _ := os.ReadDir(s.dir)
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != entrySuffix {
				continue
			}
			if fi, err := f.Info(); err == nil {
				n++
				size += fi.Size()
			}
		}
	}
	return n, size
}
