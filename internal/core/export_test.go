package core

// The golden fixture, for the gateway's golden test in package core_test
// (which can import the service layer; package core cannot).
const GoldenProofDigest = goldenProofDigest

var GoldenBatch = goldenBatch
