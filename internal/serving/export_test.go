package serving

// ChaosEngine lends chaosEngine to the external tests: degraded_test.go
// drives the api layer, which imports this package, so it cannot live
// inside it.
var ChaosEngine = chaosEngine
