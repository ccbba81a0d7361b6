// Package prof wires Go's host-side profilers into the xlupc
// commands: CPU profiles and allocation profiles, behind two flags
// shared by every binary, read with go tool pprof after the run.
//
// It links no network code: a live HTTP view would bring net, net/http
// and crypto/* into every binary, and the root TestFlagCensus fails if
// any command depends on net.
//
// The simulator's own figures are virtual-time and fully
// deterministic; prof measures the orthogonal question of what the
// simulation costs the host to compute (see PROFILING.md). None of it
// touches virtual time: a profiled run produces byte-identical tables.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Flags holds one command's profiling flag values. Zero values mean
// off: a command invoked without the flags pays nothing.
type Flags struct {
	CPUProfile string // -cpuprofile: CPU profile destination
	MemProfile string // -memprofile: allocation profile destination
}

// Register installs the shared profiling flags -cpuprofile and
// -memprofile on fs (flag.CommandLine when nil) and returns their
// destination. Call it before flag.Parse.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile to `file` (inspect with go tool pprof)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host allocation profile to `file` on exit")
	return f
}

// Start begins whatever profiling f asks for and returns a stop
// function that finishes it: stops the CPU profile and writes the
// allocation profile. stop is idempotent and must run before the
// process exits, or the CPU profile is truncated and the allocation
// profile never written.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	var once sync.Once
	var stopErr error
	stop = func() error {
		once.Do(func() { stopErr = f.finish(cpu) })
		return stopErr
	}
	return stop, nil
}

// finish closes out the profiles Start opened.
func (f *Flags) finish(cpu *os.File) error {
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
	}
	if f.MemProfile != "" {
		mf, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the live set so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}
	return nil
}

// MustStart is Start for command mains: a setup failure prints
// "<cmd>: <err>" and exits 2. The returned stop reports a finishing
// failure the same way and exits 1 — a requested profile that cannot
// be written must not look like success.
func (f *Flags) MustStart(cmd string) (stop func()) {
	s, err := f.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
	return func() {
		if err := s(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
			os.Exit(1)
		}
	}
}
