package core

// FingerprintNeutral is the fingerprint-neutrality registry the fpexclude
// analyzer cross-checks against Config's struct tags: every field excluded
// from serialization (json:"-") — and therefore invisible to
// Fingerprint() and the run-cache key — must be listed here, mapped to the
// equivalence test that pins byte-identical results across its settings.
// A field that is neither fingerprinted nor registered fails `make lint`;
// TestFingerprintNeutralRegistryMirrorsTags keeps the registry and the
// tags from drifting apart at test time too. The conformance matrix in
// internal/experiment sets all three fields on every cell it runs and
// compares stats, run-cache bytes and fingerprints with the reference
// mode, hence the qualified names.
var FingerprintNeutral = map[string]string{
	"Audit":       "internal/experiment.TestConformance",
	"Obs":         "internal/experiment.TestConformance",
	"FastForward": "internal/experiment.TestConformance",
}
