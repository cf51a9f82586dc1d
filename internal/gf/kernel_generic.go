//go:build !amd64 || purego

package gf

// No assembly kernels on this target: either the architecture has none
// (the portable widened-word kernel registered in kernel.go serves every
// GOARCH, arm64 and 386 included) or the build carries the `purego` tag, which
// forces the portable path everywhere for auditability and as the CI
// baseline the SIMD kernels are differential-tested and bench-guarded
// against.
