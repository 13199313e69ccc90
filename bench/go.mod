// The benchmark is a module of its own, so that the repository's go.mod,
// build and tests are as they were without it. Its import path lies under
// repro/, which is what lets it import repro/internal/...; the replace
// points at the repository around this directory. No other dependency.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
