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
// JSON alongside the full key, in exactly the bytes Put writes:
//
//	{"key":<key JSON>,"value":<value JSON>}
//
// A lookup reads an entry only if it is byte-for-byte that record for the
// probe key, so hash collisions, torn files and entries in any other
// format (reformatted, trailing bytes, another key's record) are misses
// and degrade to re-computation, never to wrong results. Lookup is the one
// read path; Get is Lookup plus json.Unmarshal.
//
// A nil *Cache is valid and behaves as an always-miss, discard-writes
// cache, which is how -no-cache is implemented.
type Cache struct {
	dir                string
	hits, misses, puts atomic.Int64
}

// envelope is the on-disk record: the key is stored with the value so a
// lookup can verify the address actually belongs to the probe.
type envelope struct {
	Key   json.RawMessage `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Key is a cache key marshaled once: its canonical JSON and the content
// address that follows from it. A caller that looks one key up many times
// makes it once with NewKey and passes it to Lookup.
type Key struct {
	json []byte
	addr string
}

// NewKey marshals and hashes key.
func NewKey(key any) (Key, error) {
	b, err := json.Marshal(key)
	if err != nil {
		return Key{}, fmt.Errorf("runner: marshaling cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return Key{json: b, addr: hex.EncodeToString(sum[:])}, nil
}

// Address returns the key's content address: the hex SHA-256 of its
// canonical JSON.
func (k Key) Address() string { return k.addr }

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
	k, err := NewKey(key)
	return k.addr, err
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get looks key up and, on a hit, unmarshals the stored value into out
// (which must be a pointer). It is Lookup with json.Unmarshal as the
// decoder: an entry that is not byte-exact to Put's format, or whose value
// out cannot hold, is a miss.
func (c *Cache) Get(key, out any) (bool, error) {
	if c == nil {
		return false, nil
	}
	k, err := NewKey(key)
	if err != nil {
		return false, err
	}
	return c.Lookup(k, func(v []byte) error { return json.Unmarshal(v, out) }), nil
}

// Lookup is the cache's one read path. It reads k's entry and, if the
// entry is exactly the bytes Put writes for k, hands the stored value
// bytes to decode without decoding the envelope; decode may keep them.
// The lookup is a hit only if decode returns nil: a missing entry, one in
// any other format, or one whose value decode rejects is a miss, and each
// outcome is counted. Lookup checks the entry's framing and that the value
// has nothing Put's encoder would rewrite; decode must reject bytes that
// are not one JSON value, as json.Unmarshal does.
func (c *Cache) Lookup(k Key, decode func(value []byte) error) bool {
	if c == nil {
		return false
	}
	raw, err := os.ReadFile(c.path(k.addr))
	if err == nil {
		if v, ok := entryValue(raw, k.json); ok && decode(v) == nil {
			c.hits.Add(1)
			return true
		}
	}
	c.misses.Add(1)
	return false
}

// entryValue returns the value bytes of raw if raw is the record Put
// writes for keyJSON: {"key":<keyJSON>,"value":<value>} with nothing
// around it, and a value compact in Put's sense.
func entryValue(raw, keyJSON []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(`{"key":`))
	if ok {
		rest, ok = bytes.CutPrefix(rest, keyJSON)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"value":`))
	}
	if ok {
		rest, ok = bytes.CutSuffix(rest, []byte(`}`))
	}
	return rest, ok && compact(rest)
}

// compact reports whether v, read as JSON, holds nothing Put's encoder
// would rewrite: no whitespace between tokens and none of the characters
// it escapes inside strings (<, >, &, U+2028, U+2029). Syntax is the
// decoder's to check; for valid JSON, compact(v) means Put stores v
// unchanged. Only a value with a space in it is walked byte by byte.
func compact(v []byte) bool {
	// Tabs, newlines and carriage returns are whitespace between tokens
	// or invalid JSON; the escaped characters are never left as they are.
	for _, c := range "\t\n\r<>&" {
		if bytes.IndexByte(v, byte(c)) >= 0 {
			return false
		}
	}
	if bytes.Contains(v, []byte("\u2028")) || bytes.Contains(v, []byte("\u2029")) {
		return false
	}
	if bytes.IndexByte(v, ' ') < 0 {
		return true
	}
	// A space is compact only inside a string.
	inString := false
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			i++ // an escaped character neither ends the string nor is a space
		case '"':
			inString = !inString
		case ' ':
			if !inString {
				return false
			}
		}
	}
	return true
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
