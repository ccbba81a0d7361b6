//go:build xlupcpoison

package pool

// Poison is true in the xlupcpoison build, which retires every recycled
// record instead of reusing it (see the package comment).
const Poison = true
