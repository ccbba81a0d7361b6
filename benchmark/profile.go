package main

// profile.go turns a CPU profile into self-time shares per layer: the
// flat samples of `go tool pprof -top`, summed by the package of the
// leaf function.

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareNames are the per-layer share metrics, in report order.
var shareNames = []string{
	"sim.cpu_share", "fabric.cpu_share", "transport.cpu_share", "core.cpu_share",
	"addrcache.cpu_share", "mem.cpu_share", "svd.cpu_share", "kv.cpu_share",
	"dis.cpu_share", "obs.cpu_share", "host.gc_share", "host.sched_share",
	"host.other_share", "bench.cpu_share",
}

// packageLayer maps a package of the program (or of the benchmark) to
// the share it is charged to. Packages not listed, the standard library
// among them, land in host.other_share.
var packageLayer = map[string]string{
	"xlupc/internal/sim":       "sim.cpu_share",
	"xlupc/internal/fabric":    "fabric.cpu_share",
	"xlupc/internal/fault":     "fabric.cpu_share",
	"xlupc/internal/transport": "transport.cpu_share",
	"xlupc/internal/core":      "core.cpu_share",
	"xlupc/internal/addrcache": "addrcache.cpu_share",
	"xlupc/internal/mem":       "mem.cpu_share",
	"xlupc/internal/svd":       "svd.cpu_share",
	"xlupc/internal/kv":        "kv.cpu_share",
	"xlupc/internal/dis":       "dis.cpu_share",
	"xlupc/internal/telemetry": "obs.cpu_share",
	"xlupc/internal/trace":     "obs.cpu_share",
	"xlupc/internal/flight":    "obs.cpu_share",
	// The code that drives the layers: this benchmark's bodies in the
	// in-process workloads, the report's harness in `report`.
	"main":                 "bench.cpu_share",
	"xlupc/internal/bench": "bench.cpu_share",
	"xlupc/internal/apps":  "bench.cpu_share",
	"xlupc/internal/stats": "bench.cpu_share",
}

// Go runtime functions by what they work for, matched by name prefix:
// the functions that carry weight in profiles of the four workloads,
// and their siblings. The rest of the runtime (memmove, map access)
// stays in host.other_share.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.malloc", "runtime.scan", "runtime.grey", "runtime.mark",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf",
		"runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
		"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*gcControllerState)",
		"runtime.(*pallocBits)", "runtime.(*pageAlloc)", "runtime.(*fixalloc)",
		"runtime.(*spanSet)", "runtime.(*sweepLocke", "runtime.nextFree", "runtime.heapBits",
		"runtime.heapSetType", "runtime.typePointers", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.memclr", "runtime.findObject",
		"runtime.spanOf", "runtime.acquirem", "runtime.releasem", "runtime.madvise", "runtime.newArena",
	}
	schedPrefixes = []string{
		"runtime.futex", "runtime.nanotime", "runtime.lock", "runtime.unlock", "runtime.casgstatus",
		"runtime.chan", "runtime.send", "runtime.recv", "runtime.select", "runtime.gopark",
		"runtime.park", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.execute",
		"runtime.findRunnable", "runtime.stealWork", "runtime.runq", "runtime.pidle", "runtime.pMask",
		"runtime.wakep", "runtime.wirep", "runtime.startm", "runtime.stopm", "runtime.mPark",
		"runtime.mget", "runtime.mcall", "runtime.gogo", "runtime.gosched", "runtime.goexit",
		"runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.dropg", "runtime.readgstatus",
		"runtime.acquireSudog", "runtime.releaseSudog", "runtime.(*waitq)", "runtime.(*guintptr)",
		"runtime.(*gList)", "runtime.(*timers)", "runtime.(*mLockProfile)", "runtime.note",
		"runtime.usleep", "runtime.osyield", "runtime.systemstack", "runtime.asyncPreempt",
		"runtime.getMCache", "runtime.traceAcquire", "gogo", "gosave_systemstack_switch",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf extracts the import path from a symbol as pprof prints it,
// e.g. "xlupc/internal/sim.(*Queue[go.shape.interface {}]).Push".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// layerOf names the share a leaf function's samples are charged to.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if layer, ok := packageLayer[pkg]; ok {
		return layer
	}
	switch {
	case hasAnyPrefix(fn, gcPrefixes):
		return "host.gc_share"
	case hasAnyPrefix(fn, schedPrefixes):
		return "host.sched_share"
	}
	return "host.other_share"
}

// sharesFromTop aggregates the text of `go tool pprof -top -unit=ms`.
// Every share name is present in the result and the shares sum to 1.
func sharesFromTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat column %q: %w", f[0], err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[layerOf(name)] += ms
		total += ms
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := map[string]float64{}
	for _, n := range shareNames {
		shares[n] = flat[n] / total
	}
	return shares, nil
}

// profileShares runs pprof over CPU profiles of one binary, merged.
func profileShares(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms",
		"-nodefraction=0", "-edgefraction=0", "-nodecount=1000000"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %v: %w", paths, err)
	}
	return sharesFromTop(string(out))
}
