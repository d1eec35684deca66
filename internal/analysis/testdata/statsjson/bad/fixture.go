// Package fixture is the failing statsjson case: every way the cache-key
// contract can drift, in one package shaped like internal/core.
package fixture

// Prefetcher stands in for the cache.PrefetcherConfig interface field.
type Prefetcher interface{ Hint() }

type Config struct {
	Name     string
	Depth    int
	Prefetch Prefetcher
	Triggers map[uint64][]uint64
	Debug    bool `json:"-"` // want "no canonical Debug field"
	secret   int             // want "Config field secret is unexported"
}

type Stats struct {
	Cycles  int64
	hidden  int64          // want "Stats field hidden is unexported"
	Scratch int64 `json:"-"` // want "cached snapshots will lose it"
}

type configFingerprint struct {
	Schema   int
	Config   Config
	Prefetch string
	Triggers []uint64
	Orphan   string // want "does not correspond to any field cleared"
}

func (c Config) Fingerprint() string {
	shadow := c
	shadow.Prefetch = nil
	shadow.Triggers = nil
	shadow.Depth = 0 // want "no canonical Depth replacement"
	_ = shadow
	return "hash"
}
