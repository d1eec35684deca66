package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Cache is a content-addressed on-disk result store. Keys are arbitrary
// JSON-marshalable values; the address is the SHA-256 of the key's
// canonical JSON (encoding/json is canonical for our keys: struct fields
// serialize in declaration order and map keys sort). Values are stored as
// JSON alongside the full key, and a lookup whose stored key does not
// byte-match the probe key is treated as a miss, so hash collisions and
// torn files degrade to re-computation, never to wrong results.
//
// A nil *Cache is valid and behaves as an always-miss, discard-writes
// cache, which is how -no-cache is implemented.
type Cache struct {
	dir                string
	hits, misses, puts atomic.Int64
}

// envelope is the on-disk record: the key is stored with the value so Get
// can verify the address actually belongs to the probe.
type envelope struct {
	Key   json.RawMessage `json:"key"`
	Value json.RawMessage `json:"value"`
}

// OpenCache creates (if needed) and opens a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Fingerprint returns the hex SHA-256 of key's canonical JSON.
func Fingerprint(key any) (string, error) {
	b, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("runner: marshaling cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get looks key up and, on a hit, unmarshals the stored value into out
// (which must be a pointer). Corrupt or mismatched entries are misses.
func (c *Cache) Get(key, out any) (bool, error) {
	if c == nil {
		return false, nil
	}
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return false, fmt.Errorf("runner: marshaling cache key: %w", err)
	}
	sum := sha256.Sum256(keyJSON)
	raw, err := os.ReadFile(c.path(hex.EncodeToString(sum[:])))
	if err != nil {
		c.misses.Add(1)
		return false, nil
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || !bytes.Equal(env.Key, keyJSON) {
		c.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(env.Value, out); err != nil {
		c.misses.Add(1)
		return false, nil
	}
	c.hits.Add(1)
	return true, nil
}

// Test seams for fault injection: the durability tests swap these to
// simulate full-disk writes and fsync failures without a faulty device.
var (
	writeTemp = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	syncFile  = func(f *os.File) error { return f.Sync() }
)

// Put stores value under key, atomically and durably: the blob is written
// to a same-directory temp file, fsynced, renamed over the destination,
// and the parent directory is fsynced so the entry survives a crash right
// after Put returns. Concurrent runs sharing a cache directory never
// observe torn entries, and every failure path removes the temp file so a
// crashed or full-disk run leaves no .tmp-* litter for later scans to
// trip over.
func (c *Cache) Put(key, value any) error {
	if c == nil {
		return nil
	}
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return fmt.Errorf("runner: marshaling cache key: %w", err)
	}
	valJSON, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("runner: marshaling cache value: %w", err)
	}
	blob, err := json.Marshal(envelope{Key: keyJSON, Value: valJSON})
	if err != nil {
		return err
	}
	sum := sha256.Sum256(keyJSON)
	dst := c.path(hex.EncodeToString(sum[:]))
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	// From here on, any failure must both close and remove the temp file.
	fail := func(op string, err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put %s: %w", op, err)
	}
	if _, err := writeTemp(tmp, blob); err != nil {
		return fail("write", err)
	}
	// fsync before rename: otherwise a crash can leave the rename durable
	// but the contents not, i.e. a persistent torn entry at the final path.
	if err := syncFile(tmp); err != nil {
		return fail("fsync", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put close: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put rename: %w", err)
	}
	// fsync the parent directory so the rename itself is durable. Failure
	// here is reported, but the entry is already valid and atomic, so the
	// destination is left in place.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := syncFile(d); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Metrics reports lookup and store counts since open.
type Metrics struct {
	Hits, Misses, Puts int64
}

// Metrics returns the cache's counters (zeros for a nil cache).
func (c *Cache) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{Hits: c.hits.Load(), Misses: c.misses.Load(), Puts: c.puts.Load()}
}
