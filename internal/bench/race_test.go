//go:build race

package bench

// raceBuild is true under the race detector, whose allocations of its
// own move TestAllocGuard's readings: that build checks bounds instead.
const raceBuild = true
