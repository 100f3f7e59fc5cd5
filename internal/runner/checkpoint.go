package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
)

// Warnf receives non-fatal checkpoint degradation notices (a torn or
// corrupt journal tail skipped on resume). It writes through the
// standard log package; tests may capture it.
var Warnf = log.Printf

// Checkpoint is an append-only JSON-lines journal of completed job
// results. Each line is {"key": ..., "value": ...}; the key embeds
// everything that determines the result (workload, policy, scale,
// geometry), so a lookup hit is exactly a finished cell and a
// config change produces disjoint keys rather than stale hits.
//
// The journal is crash-safe by construction: a torn final line (the
// process died mid-write) is ignored on load, and every complete line
// is a finished, self-contained result. All methods are safe for
// concurrent use and on a nil receiver (no-ops), so callers need not
// branch on whether checkpointing is enabled.
type Checkpoint struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string]json.RawMessage
}

type checkpointEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// OpenCheckpoint opens (or creates) the journal at path. With resume
// set, existing entries are loaded and later Lookup calls hit them;
// without it any existing journal is truncated and the run starts
// fresh.
//
// A resume tolerates a crash mid-Record: a truncated or corrupt
// trailing line ends the useful prefix. The intact entries load, the
// bad tail is logged through Warnf and physically truncated away —
// appending after a torn line would otherwise concatenate the next
// record onto it and corrupt the journal one restart later.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	c := &Checkpoint{entries: make(map[string]json.RawMessage)}
	if resume {
		keep, err := c.load(path)
		if err != nil {
			return nil, err
		}
		if keep >= 0 {
			if err := os.Truncate(path, keep); err != nil {
				return nil, fmt.Errorf("runner: truncate torn checkpoint tail: %w", err)
			}
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open checkpoint: %w", err)
	}
	c.f = f
	return c, nil
}

// load reads the journal's intact prefix into c.entries. It returns
// the byte offset the file should be truncated to when a bad tail was
// found, or -1 when the whole file is intact.
func (c *Checkpoint) load(path string) (keep int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return -1, nil
	}
	if err != nil {
		return -1, fmt.Errorf("runner: load checkpoint: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for lineNo := 1; ; lineNo++ {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return -1, fmt.Errorf("runner: load checkpoint: %w", rerr)
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var e checkpointEntry
			// Every complete entry is one newline-terminated line; a
			// line that does not parse, names no key, or ends at EOF
			// without its newline is a torn write. Skip it — and
			// anything after it — rather than failing the resume.
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil || e.Key == "" || rerr == io.EOF {
				Warnf("runner: checkpoint %s: ignoring torn or corrupt journal tail at line %d (crash mid-write?); keeping %d intact entries",
					path, lineNo, len(c.entries))
				return off, nil
			}
			c.entries[e.Key] = e.Value
		}
		off += int64(len(line))
		if rerr == io.EOF {
			return -1, nil
		}
	}
}

// Len reports how many entries are loaded or recorded.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup unmarshals the journaled value for key into v and reports
// whether it was present. A nil receiver never hits.
func (c *Checkpoint) Lookup(key string, v any) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	raw, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, v) == nil
}

// Record journals one completed result and flushes it to disk. A nil
// receiver is a no-op.
func (c *Checkpoint) Record(key string, v any) error {
	if c == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: marshal checkpoint %s: %w", key, err)
	}
	line, err := json.Marshal(checkpointEntry{Key: key, Value: raw})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = raw
	if c.f == nil {
		return nil
	}
	if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	return nil
}

// Close closes the journal file. A nil receiver is a no-op.
func (c *Checkpoint) Close() error {
	if c == nil || c.f == nil {
		return nil
	}
	return c.f.Close()
}
