// Package factcheck is the module root of a from-scratch Go
// implementation of "User Guidance for Efficient Fact Checking" (Nguyen
// Thanh Tam et al., PVLDB 12, 2019): a framework that guides users
// through the validation of extracted claims so that a high-precision
// knowledge base is reached with minimal manual effort.
//
// The package declares nothing. What runs is under cmd/ (the §8
// experiment runner, the guidance server and router speaking the /v1
// contract, an interactive session, a load generator) and examples/;
// the implementation is under internal/, one package per concern:
// factdb (the ⟨S, D, C, P⟩ database), em and gibbs (iCRF inference),
// guidance (the §4 strategies), core (the Alg. 1 session), synth and
// sim (the §8 corpora and users), service (multi-session serving).
// The root holds only this comment and the hot-path benchmarks in
// bench_test.go.
package factcheck
