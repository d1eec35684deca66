package experiment

// FingerprintNeutral is the fingerprint-neutrality registry for Params,
// enforced by the fpexclude analyzer exactly as core.FingerprintNeutral is
// for core.Config: every json:"-" field must be registered with the
// equivalence test proving cells produced with the knob on and off are
// byte-identical (same canonical stats, same cache entries). Audit's proof
// lives in internal/core — the knob is a pass-through to core.Config.Audit
// — hence the qualified name.
var FingerprintNeutral = map[string]string{
	"Cache":       "TestMatrixWarmCacheByteIdentical",
	"Audit":       "internal/core.TestAuditCleanRun",
	"Obs":         "TestObsUniformAcrossCacheStates",
	"ObsRun":      "TestObsUniformAcrossCacheStates",
	"FastForward": "TestFastForwardEquivalence",
}
