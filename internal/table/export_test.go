package table

// Test-only exports for the external test package (counting_test.go),
// which checks the stats cache's two-relation counts on tables built by
// this package's randomized generators.

// FillSequence is fillSequence.
var FillSequence = fillSequence

// RandTablePair is randTablePair.
type RandTablePair = randTablePair
