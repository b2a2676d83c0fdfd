package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"athena/internal/obs"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func withObs(t *testing.T) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
}

func TestPutGetRoundTrip(t *testing.T) {
	withObs(t)
	s := openTest(t, Config{})
	payload := []byte("rendered figure bytes\nwith lines\n")
	key := "exp/v1|ns=abc|id=f3|opts={1,0.25}"
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeysWithNewlinesAndEmptyPayload(t *testing.T) {
	s := openTest(t, Config{})
	cases := []struct {
		key     string
		payload []byte
	}{
		{"plain", []byte{}},
		{"key\nwith\nnewlines", []byte("x")},
		{"key with spaces and \x00 bytes", []byte{0, 1, 2, 255}},
	}
	for _, c := range cases {
		if err := s.Put(c.key, c.payload); err != nil {
			t.Fatalf("Put(%q): %v", c.key, err)
		}
		got, ok := s.Get(c.key)
		if !ok || !bytes.Equal(got, c.payload) {
			t.Fatalf("Get(%q) = %q, %v", c.key, got, ok)
		}
	}
}

func TestOverwriteReplacesEntry(t *testing.T) {
	s := openTest(t, Config{})
	if err := s.Put("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("two — longer payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "two — longer payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// entryPath exposes the on-disk location for corruption tests.
func entryPath(s *Store, key string) string { return s.path(key) }

func TestCorruptEntryIsDiscardedNotReturned(t *testing.T) {
	withObs(t)
	corruptions := map[string]func([]byte) []byte{
		"truncated":      func(d []byte) []byte { return d[:len(d)/2] },
		"bitflip_header": func(d []byte) []byte { d[2] ^= 0x40; return d },
		"bitflip_body":   func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d },
		"empty":          func(d []byte) []byte { return nil },
		"garbage":        func(d []byte) []byte { return []byte("not an entry at all") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, Config{})
			if err := s.Put("victim", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			p := entryPath(s, "victim")
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("victim"); ok {
				t.Fatalf("corrupt entry returned as valid: %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not deleted")
			}
			// The slot is reusable after the discard.
			if err := s.Put("victim", []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("victim"); !ok || string(got) != "fresh" {
				t.Fatalf("re-put after discard = %q, %v", got, ok)
			}
		})
	}
}

// A valid entry whose key differs from the requested one (e.g. a file
// copied to the wrong path) must miss and be discarded: path identity
// alone is never trusted.
func TestKeyMismatchIsCorrupt(t *testing.T) {
	withObs(t)
	s := openTest(t, Config{})
	if err := s.Put("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entryPath(s, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(s, "b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("b"); ok {
		t.Fatalf("entry for key a returned for key b: %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

func TestInvalidate(t *testing.T) {
	withObs(t)
	s := openTest(t, Config{})
	if err := s.Put("k", []byte("semantically wrong")); err != nil {
		t.Fatal(err)
	}
	s.Invalidate("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("invalidated entry still readable")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	s.Invalidate("k") // idempotent on absent entries
}

func TestReopenSeesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("persisted", []byte("across opens")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("persisted")
	if !ok || string(got) != "across opens" {
		t.Fatalf("Get after reopen = %q, %v", got, ok)
	}
	if s2.Size() != s1.Size() {
		t.Fatalf("reopened size %d != %d", s2.Size(), s1.Size())
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Size() != 0 {
		t.Fatalf("foreign file counted: len=%d size=%d", s.Len(), s.Size())
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, Config{})
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%10)
				payload := []byte(fmt.Sprintf("payload-%d", i%10))
				if err := s.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && string(got) != string(payload) {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestMetricsRegistration(t *testing.T) {
	withObs(t)
	s, err := Open(t.TempDir(), Config{Metrics: "storetest"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"))
	s.Get("k")
	snap := obs.TakeSnapshot()
	if snap.Counters["storetest.writes"] != 1 || snap.Counters["storetest.hits"] != 1 {
		t.Fatalf("registered counters not recording: %v", snap.Counters)
	}
	s.Close()
	snap = obs.TakeSnapshot()
	if _, ok := snap.Counters["storetest.writes"]; ok {
		t.Fatal("Close did not unregister metrics")
	}
}
