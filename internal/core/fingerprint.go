package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"frontsim/internal/isa"
)

// FingerprintSchema versions the canonical serialized form of Config. Bump
// it whenever Config's shape, the simulator's cycle-level semantics, or
// the Stats value schema change, so stale run-cache entries
// (internal/runner) stop matching.
//
// Schema history:
//
//	1  initial canonical form
//	2  ftq.Stats gained the per-cycle scenario partition (Cycles,
//	   Scenario2Cycles, Scenario3Cycles); schema-1 snapshots would decode
//	   with those counters silently zero
//	3  Stats gained WarmupOvershoot (warmup-boundary accounting); schema-2
//	   snapshots lack the field and StatsFromJSON's DisallowUnknownFields
//	   would reject schema-3 snapshots under the old decoder
//	4  the run loop gained the event-driven fast-forward path
//	   (Config.FastForward; fingerprint-excluded like Audit/Obs). The fast
//	   path is proven byte-identical, but schema-3 entries were written by
//	   binaries whose cycle loop predates the skip scheduler, so they are
//	   retired rather than trusted across the semantics boundary
//	5  the machine gained three prefetch-mechanism dimensions: the MANA
//	   spatial-region prefetcher (via the Prefetcher fingerprint string),
//	   shadow-branch decoding (frontend.Config.Shadow) and the I-TLB model
//	   (cache.HierarchyConfig.ITLB) — both serialized, so every canonical
//	   config form changed — and Stats gained the ITLB counter block plus
//	   bpu.Stats shadow counters, changing the cached value shape
//	6  sampled simulation (Config.Sampling, SMARTS-style systematic
//	   sampling): the Sampling block is serialized — sampled and exact
//	   runs of one machine must never share cache entries, so every
//	   canonical config form changed — and Stats gained the optional
//	   Sampling estimate block, changing the cached value shape
const FingerprintSchema = 6

// PrefetchCounter lets an attached hardware prefetcher report counters of
// its own, which the snapshot carries in Stats.Prefetcher.
type PrefetchCounter interface {
	PrefetchCounters() PrefetcherStats
}

// PrefetcherStats are a metadata-driven prefetcher's counters
// (internal/preload), counted over the whole run, warm-up included.
type PrefetcherStats struct {
	Lookups        int64 // demand L1-I accesses checked against the metadata
	L1Hits         int64 // lookups served by ready L1-side metadata
	MetadataMisses int64 // trigger lines fetched from the LLC-side store
	Prefetches     int64 // prefetches issued
}

// triggerFingerprint is one Triggers entry in canonical (site-sorted)
// order. Target order within a site is preserved: the front-end fires
// trigger prefetches in slice order, so it is semantically meaningful.
type triggerFingerprint struct {
	Site    isa.Addr   `json:"site"`
	Targets []isa.Addr `json:"targets"`
}

// configFingerprint is the canonical serialized form Fingerprint hashes.
type configFingerprint struct {
	Schema     int                  `json:"schema"`
	Config     Config               `json:"config"` // Prefetcher and Triggers zeroed
	Prefetcher string               `json:"prefetcher"`
	Triggers   []triggerFingerprint `json:"triggers"`
}

// Fingerprint returns a stable content hash of the whole-machine
// configuration: equal fingerprints mean bit-identical simulation given
// the same instruction source. It is the config half of the run-cache key.
func (c Config) Fingerprint() string {
	shadow := c
	shadow.Frontend.Prefetcher = nil
	shadow.Triggers = nil
	fp := configFingerprint{
		Schema:   FingerprintSchema,
		Config:   shadow,
		Triggers: canonicalTriggers(c.Triggers),
	}
	if c.Frontend.Prefetcher != nil {
		fp.Prefetcher = c.Frontend.Prefetcher.PrefetchFingerprint()
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// Config holds only plain data once the interface field is
		// cleared; Marshal cannot fail on it.
		panic(fmt.Sprintf("core: fingerprinting config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func canonicalTriggers(m map[isa.Addr][]isa.Addr) []triggerFingerprint {
	if len(m) == 0 {
		return nil
	}
	out := make([]triggerFingerprint, 0, len(m))
	for site, targets := range m { //lint:allow out is sorted by Site below; iteration order cannot escape
		out = append(out, triggerFingerprint{Site: site, Targets: targets})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// CanonicalJSON returns the stable serialized form of the snapshot — the
// run-cache value format. encoding/json renders float64 in the shortest
// exactly-round-tripping form, so decode(encode(s)) is bit-identical.
func (s Stats) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}

// StatsFromJSON decodes a snapshot written by CanonicalJSON. Unknown
// fields are rejected so schema drift surfaces as an error instead of a
// silently truncated snapshot.
func StatsFromJSON(b []byte) (Stats, error) {
	var s Stats
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Stats{}, fmt.Errorf("core: decoding stats: %w", err)
	}
	return s, nil
}
