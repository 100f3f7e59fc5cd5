package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"sdbp/internal/memo"
)

// Store is the result cache's storage backend: content-addressed blobs
// keyed by the hex digest of the canonical spec expression. Backends
// must be safe for concurrent use. Get misses are (nil, false, nil);
// an error return means the backend itself failed (disk fault,
// permission), which the server treats as a degraded cache, not a
// failed request.
type Store interface {
	Get(addr string) ([]byte, bool, error)
	Put(addr string, data []byte) error
	Close() error
}

// MemStore is an in-process Store and the default backend. Its results
// live in the process memo under the memo's byte budget: past it, the
// memo drops its least recently used entries, this store's results
// among them, and a dropped result's next submission recomputes it.
// Each MemStore is its own key space, so two servers in one process
// never share results. Results are lost on restart; crash-safe resume
// comes from the runner checkpoint, not the cache.
type MemStore struct {
	results *memo.Cache[string, []byte]
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{results: memo.New[string, []byte]()}
}

// Get returns the stored bytes for addr.
func (s *MemStore) Get(addr string) ([]byte, bool, error) {
	b, ok := s.results.Get(addr)
	return b, ok, nil
}

// Put stores a copy of data under addr, replacing any previous value.
func (s *MemStore) Put(addr string, data []byte) error {
	b := append([]byte(nil), data...)
	s.results.Put(addr, b, cap(b)+len(addr))
	return nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// DiskStore keeps one file per result under a directory, so cached
// results survive restarts. Writes go through a temp file and rename,
// so a crash mid-Put leaves either the old value or none — never a
// torn blob.
type DiskStore struct {
	dir string
}

// NewDiskStore creates (if needed) and opens a directory-backed store.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path maps an addr to its file. Addrs are validated hex digests (see
// ValidAddr), so they are safe path components; path refuses anything
// else as a second line of defense.
func (s *DiskStore) path(addr string) (string, error) {
	if !ValidAddr(addr) {
		return "", fmt.Errorf("serve: invalid result address %q", addr)
	}
	return filepath.Join(s.dir, addr+".json"), nil
}

// Get reads the blob for addr; a missing file is a miss, not an error.
func (s *DiskStore) Get(addr string) ([]byte, bool, error) {
	p, err := s.path(addr)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("serve: disk store get: %w", err)
	}
	return b, true, nil
}

// Put writes the blob atomically (temp file + rename).
func (s *DiskStore) Put(addr string, data []byte) error {
	p, err := s.path(addr)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, addr+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: disk store put: %w", err)
	}
	return nil
}

// Close is a no-op; every Put is already durable.
func (s *DiskStore) Close() error { return nil }
