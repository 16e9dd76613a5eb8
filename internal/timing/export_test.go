package timing

// RandomBatch exposes randomBatch to the external tests in scaled_test.go,
// which import mcd (and mcd imports timing).
var RandomBatch = randomBatch
