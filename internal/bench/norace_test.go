//go:build !race

package bench

// raceBuild is true under the race detector (see race_test.go).
const raceBuild = false
