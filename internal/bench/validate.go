package bench

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"xlupc/internal/flight"
)

// ValidateScale checks the thread/node counts the hybrid mapping
// assumes: both positive, threads an exact multiple of nodes. The CLIs
// call it up front so a bad -threads/-nodes pair fails with a clear
// message instead of surfacing as a runtime construction error deep in
// a sweep.
func ValidateScale(threads, nodes int) error {
	if threads <= 0 || nodes <= 0 {
		return fmt.Errorf("need positive -threads (%d) and -nodes (%d)", threads, nodes)
	}
	if threads%nodes != 0 {
		return fmt.Errorf("-threads (%d) must be a multiple of -nodes (%d): hybrid mode places threads/nodes UPC threads on every node", threads, nodes)
	}
	return nil
}

// parseFloats parses a comma-separated float list for flagName,
// rejecting NaN and anything outside [0, hi) — or [0, hi] when incl.
// NaN slips through plain range comparisons (both are false), so it
// is rejected explicitly: a NaN rate or skew would silently corrupt
// every schedule or sampler draw.
func parseFloats(flagName, list string, hi float64, incl bool) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		bad := err != nil || math.IsNaN(v) || v < 0
		if !bad {
			if incl {
				bad = v > hi
			} else {
				bad = v >= hi
			}
		}
		if bad {
			op := "<"
			if incl {
				op = "<="
			}
			return nil, fmt.Errorf("bad %s value %q (want 0 <= v %s %g)", flagName, s, op, hi)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseRates parses a comma-separated probability list — loss rates,
// crash rates, Zipf skews — rejecting NaN and values outside [0, 1).
// The CLIs share it so every rate-shaped flag fails the same way.
func ParseRates(flagName, list string) ([]float64, error) {
	return parseFloats(flagName, list, 1, false)
}

// ParseFracs parses a comma-separated fraction list — read mixes —
// rejecting NaN and values outside [0, 1] (1 is legal: a pure-read
// workload is meaningful where a certain packet loss is not).
func ParseFracs(flagName, list string) ([]float64, error) {
	return parseFloats(flagName, list, 1, true)
}

// ValidatePositive rejects zero or negative counts (-ops, -keys).
func ValidatePositive(flagName string, v int64) error {
	if v <= 0 {
		return fmt.Errorf("%s (%d) must be positive", flagName, v)
	}
	return nil
}

// ParseSweepFlags checks the -reps and -parallel flags of xlupc-micro,
// xlupc-report and xlupc-dis before any sweep or host profile starts:
// zero repetitions would not fail — every row of every table would
// print as n/a, or one rep per point would run, with exit status 0.
func ParseSweepFlags(reps, parallel int) error {
	if err := ValidatePositive("-reps", int64(reps)); err != nil {
		return err
	}
	return ValidateParallel(parallel)
}

// RegisterParallel installs the -parallel flag every sweeping command
// shares on fs (flag.CommandLine when nil) and returns where its value
// lands. Call it before flag.Parse; the command's flag check passes the
// value through ValidateParallel before it reaches SetParallelism.
func RegisterParallel(fs *flag.FlagSet) *int {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical either way")
}

// ValidateParallel rejects a negative -parallel, which SetParallelism
// would otherwise read as GOMAXPROCS with exit status 0.
func ValidateParallel(n int) error {
	if n < 0 {
		return fmt.Errorf("-parallel (%d) must not be negative", n)
	}
	return nil
}

// ParseFlightFlags applies the -flight / -flight-dump pair of
// xlupc-report and xlupc-chaos before any sweep starts: -flight
// attaches a recorder to every chaos/crash run (SetFlight) dumping to
// stderr; -flight-dump PATH implies it and dumps to PATH instead (an
// unwritable PATH is a usage error: exit 2). The caller runs finish
// after its sweeps: it adds a representative capture (FlightCapture)
// so a clean run does not leave PATH empty, and closes the file.
func ParseFlightFlags(on bool, dumpPath string) (finish func(seed int64) error, err error) {
	if dumpPath == "" {
		if on {
			SetFlight(&flight.Config{Dump: os.Stderr})
		}
		return func(int64) error { return nil }, nil
	}
	f, err := os.Create(dumpPath)
	if err != nil {
		return nil, err
	}
	SetFlight(&flight.Config{Dump: f})
	return func(seed int64) error {
		err := FlightCapture(f, seed)
		if err != nil {
			err = fmt.Errorf("flight capture: %v", err)
		}
		return errors.Join(err, f.Close())
	}, nil
}
