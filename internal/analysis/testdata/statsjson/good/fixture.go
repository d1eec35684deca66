// Package fixture is the passing statsjson case: every Config field is
// serialized, canonically replaced, or registered fingerprint-neutral, and
// every Stats field survives the JSON round trip.
package fixture

// Prefetcher stands in for the cache.PrefetcherConfig interface field.
type Prefetcher interface{ Hint() }

type Config struct {
	Name     string
	Depth    int
	Prefetch Prefetcher
	Triggers map[uint64][]uint64
	// Tele is excluded with no canonical replacement, but its neutrality
	// is registered below — fpexclude's territory, not schema drift.
	Tele bool `json:"-"`
}

// FingerprintNeutral vouches for Tele; statsjson must defer to it.
var FingerprintNeutral = map[string]string{
	"Tele": "TestTeleNeutral",
}

type Stats struct {
	Cycles       int64
	Instructions int64
}

type configFingerprint struct {
	Schema   int
	Config   Config
	Prefetch string
	Triggers []uint64
}

func (c Config) Fingerprint() string {
	shadow := c
	shadow.Prefetch = nil
	shadow.Triggers = nil
	_ = shadow
	return "hash"
}
