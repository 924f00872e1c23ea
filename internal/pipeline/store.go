package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is the artifact cache the engine consults before running a stage.
// Keys are content hashes chained along the stage graph, so any change in a
// stage's inputs — pages, corrections, config files, seeds — produces a new
// key and forces a re-run, while unchanged inputs hit the cache and the
// stage is skipped. Values are stage artifacts shared by reference; callers
// must treat them as read-only.
type Store interface {
	Get(key string) (any, bool)
	Put(key string, value any)
}

// MemStore is the in-memory artifact store. It is safe for concurrent use
// by the engine's worker pool and can be shared across engine runs (and
// across engines) to make warm re-runs skip unchanged stages.
type MemStore struct {
	mu      sync.RWMutex
	entries map[string]any
}

// NewMemStore returns an empty in-memory artifact store.
func NewMemStore() *MemStore {
	return &MemStore{entries: map[string]any{}}
}

// Get implements Store.
func (s *MemStore) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.entries[key]
	return v, ok
}

// Put implements Store.
func (s *MemStore) Put(key string, value any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = value
}

// Delete removes one artifact, reporting whether it was present. It backs
// Engine.Invalidate: deleting a stage's key forces that stage to re-run on
// the next job with the same inputs.
func (s *MemStore) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	delete(s.entries, key)
	return ok
}

// Len returns the number of cached artifacts.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// DiskStore persists serialized stage artifacts under a directory, one
// file per key. It backs the MemStore for the expensive stages (parse,
// hierarchy derivation) so a fresh process can warm-start from a previous
// run's artifacts.
type DiskStore struct {
	dir string
}

// NewDiskStore creates (if needed) and opens an on-disk artifact cache.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the cache directory.
func (d *DiskStore) Dir() string { return d.dir }

// path names an artifact file. The codec version is part of the name:
// a codec or layout bump changes the filename, so a newer binary can
// never read (or clobber) an older layout's artifact — stale files are
// simply never found and the stage re-runs.
func (d *DiskStore) path(stage Stage, key, version string) string {
	return filepath.Join(d.dir, string(stage)+"-"+key+"."+version)
}

// GetBytes loads the serialized artifact for a stage/key/codec triple.
func (d *DiskStore) GetBytes(stage Stage, key, version string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(stage, key, version))
	if err != nil {
		return nil, false
	}
	return data, true
}

// PutBytes stores a serialized artifact. Writes go through a temp file +
// rename so concurrent workers never observe a torn artifact.
func (d *DiskStore) PutBytes(stage Stage, key string, data []byte, version string) error {
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, d.path(stage, key, version))
}

// Delete removes one stage's serialized artifact, reporting whether it
// existed on disk.
func (d *DiskStore) Delete(stage Stage, key, version string) bool {
	return os.Remove(d.path(stage, key, version)) == nil
}

// Key derives a stage's cache key by hashing the stage name, the keys of
// its upstream artifacts, and any extra inputs. Each part is length-framed
// so concatenation ambiguity cannot alias two different input sets.
func Key(stage Stage, parts ...string) string {
	h := sha256.New()
	var frame [8]byte
	write := func(s string) {
		binary.BigEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	write(string(stage))
	for _, p := range parts {
		write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashStrings content-hashes an ordered string sequence (page bodies,
// config lines, parameter names) into one key part: each part is framed by
// its big-endian length, and the framed stream reaches the digest in
// writes of up to hashBufSize bytes. Two digest writes per part would cost
// more than the hashing itself for a manual's thousands of pages and a
// fleet's config lines.
func HashStrings(parts ...string) string {
	h := sha256.New()
	size := 0
	for _, p := range parts {
		size += 8 + len(p)
	}
	limit := min(size, hashBufSize)
	buf := make([]byte, 0, limit)
	for _, p := range parts {
		if len(buf)+8+len(p) > limit {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
		if len(p) > limit-8 {
			h.Write(buf)
			buf = buf[:0]
			h.Write([]byte(p))
			continue
		}
		buf = append(buf, p...)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// hashBufSize caps the write size of HashStrings; smaller inputs, such as
// a served request's key parts, get a buffer of their own size.
const hashBufSize = 32 << 10
