// The benchmark is a module of its own, so that the repository's
// `go build ./...` and `go test ./...` do not depend on it. It imports
// the repository's packages through the replace below.
module repro/cmd/bsfs-perf

go 1.24

require repro v0.0.0

replace repro => ../..
