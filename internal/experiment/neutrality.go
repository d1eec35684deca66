package experiment

// FingerprintNeutral is the fingerprint-neutrality registry for Params,
// enforced by the fpexclude analyzer exactly as core.FingerprintNeutral is
// for core.Config: every json:"-" field must be registered with the
// equivalence test proving cells produced with the knob on and off are
// byte-identical (same canonical stats, same cache entries).
var FingerprintNeutral = map[string]string{
	"Cache":  "TestMatrixWarmCacheByteIdentical",
	"Audit":  "TestConformance",
	"Obs":    "TestConformance",
	"ObsRun": "TestConformance",
}
