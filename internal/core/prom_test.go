package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

const promGoldenFile = "testdata/prom_golden.json"

// promConfig is one configuration of the Prometheus matrix: together
// they make every gated block of metricsTable emit.
type promConfig struct {
	name    string
	tune    func(c *Config)
	atomics bool // the workload also issues remote and local FetchAdds
}

func promConfigs() []promConfig {
	return []promConfig{
		{name: "cached", tune: func(*Config) {}},
		{name: "fault+rel", tune: func(c *Config) {
			c.Fault = &fault.Config{
				Drop: 0.02, Corrupt: 0.01, Duplicate: 0.01, Delay: 0.04, DelayMax: 30 * sim.Us,
				StallEvery: 2 * sim.Ms, StallProb: 0.2, StallMax: 150 * sim.Us,
			}
			rc := transport.DefaultRelConfig()
			c.Rel = &rc
		}},
		{name: "crash", tune: func(c *Config) { c.Crash = crashCfg(c.Profile).Crash }},
		{name: "coalesce", tune: func(c *Config) {
			coal := transport.DefaultCoalConfig()
			c.Coalesce = &coal
		}},
		{name: "lazy+cost", tune: func(c *Config) {
			c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: 1024, Evictor: mem.EvictCost, Lazy: true}
		}},
		{name: "fetchadd", tune: func(*Config) {}, atomics: true},
	}
}

// promWorkload is telemetryWorkload plus an alloc/free churn (pin
// registrations, deregistrations, reuse) and a burst of split-phase
// GETs (what coalescing batches); with atomics it adds one remote and
// one home-node FetchAdd per thread.
func promWorkload(atomics bool) func(th *Thread) {
	return func(th *Thread) {
		telemetryWorkload(th)
		pinChurn(th)
		a := th.AllAlloc("N", 64, 8, 8)
		dst := make([]byte, 8)
		for i := 0; i < 16; i++ {
			th.NbGet(dst, a.At(int64((th.ID()*17+i*5)%64)))
		}
		th.SyncAll()
		if atomics {
			th.FetchAdd(a.At(int64((th.ID()+1)%th.Threads()*8)), 1)
			th.FetchAdd(a.At(int64(th.ID()*8)), 1)
		}
		th.Barrier()
	}
}

// runProm runs one configuration of the matrix on prof with telemetry
// attached and returns the run's stats and its Prometheus snapshot.
func runProm(t *testing.T, pc promConfig, prof *transport.Profile) (RunStats, string) {
	t.Helper()
	c := cfg(8, 4, prof, DefaultCache())
	pc.tune(&c)
	tel := telemetry.New()
	c.Telemetry = tel
	st := mustRun(t, c, promWorkload(pc.atomics))
	return st, tel.Snapshot()
}

// promFamilies returns the sorted family names of a snapshot.
func promFamilies(snap string) []string {
	var fams []string
	for _, line := range strings.Split(snap, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(name)[0])
		}
	}
	sort.Strings(fams)
	return fams
}

type promRow struct {
	SHA256   string   `json:"sha256"`
	Families []string `json:"families"`
}

// TestPromGolden pins the run's Prometheus end-state — every series
// metricsTable renders and every series the spans give — for each
// configuration of the matrix on GM and LAPI, to the sha256 of the
// snapshot and its family names (so a failure names what moved).
// Regenerate only for a deliberate model or metric change:
// `go test ./internal/core -run TestPromGolden -update`.
func TestPromGolden(t *testing.T) {
	want := map[string]promRow{}
	if !*updateRoundTripGolden {
		raw, err := os.ReadFile(promGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", promGoldenFile, err)
		}
	}
	got := map[string]promRow{}
	for _, pc := range promConfigs() {
		for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
			p := prof()
			key := p.Name + "/" + pc.name
			_, snap := runProm(t, pc, p)
			sum := sha256.Sum256([]byte(snap))
			got[key] = promRow{SHA256: hex.EncodeToString(sum[:]), Families: promFamilies(snap)}
			if *updateRoundTripGolden {
				continue
			}
			w, ok := want[key]
			switch {
			case !ok:
				t.Errorf("%s: no golden row", key)
			case !reflect.DeepEqual(got[key].Families, w.Families):
				t.Errorf("%s: families moved:\n got  %v\n want %v", key, got[key].Families, w.Families)
			case got[key].SHA256 != w.SHA256:
				t.Errorf("%s: snapshot moved (same families):\n%s", key, snap)
			}
		}
	}
	if *updateRoundTripGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(promGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", promGoldenFile, len(want), len(got))
	}
}

// promSeries names the family that exports each counter of RunStats,
// by its field path, or for a flight kind's total "Flight." and the
// kind's name. A family's value is the counter summed over its label
// sets (nodes, op classes), or for the peak gauge the largest.
var promSeries = map[string]string{
	"Elapsed":               "xlupc_run_elapsed_seconds",
	"Messages":              "xlupc_net_messages_total",
	"NetBytes":              "xlupc_net_bytes_total",
	"AMOps":                 "xlupc_am_ops_total",
	"RDMAOps":               "xlupc_rdma_ops_total",
	"RDMANacks":             "xlupc_rdma_nacks_total",
	"Cache.Hits":            "xlupc_addrcache_hits_total",
	"Cache.Misses":          "xlupc_addrcache_misses_total",
	"Cache.Inserts":         "xlupc_addrcache_inserts_total",
	"Cache.Evictions":       "xlupc_addrcache_evictions_total",
	"Cache.Invalidations":   "xlupc_addrcache_invalidations_total",
	"PinStats.Pins":         "xlupc_pin_registrations_total",
	"PinStats.Unpins":       "xlupc_pin_deregistrations_total",
	"PinStats.Reclaims":     "xlupc_pin_reclaims_total",
	"PinStats.GhostHits":    "xlupc_pin_ghost_hits_total",
	"PinStats.Repins":       "xlupc_pin_repins_total",
	"PinStats.MaxLive":      "xlupc_pin_peak_entries",
	"PinStats.RegTime":      "xlupc_pin_reg_seconds",
	"PinStats.DeregTime":    "xlupc_pin_dereg_seconds",
	"OpStats.AtomicOps":     "xlupc_atomic_remote_total",
	"OpStats.LocalAtomics":  "xlupc_atomic_local_total",
	"OpStats.AtomicTime":    "xlupc_atomic_blocked_seconds",
	"Coal.Msgs":             "xlupc_coalesce_msgs_total",
	"Coal.SavedBytes":       "xlupc_coalesce_saved_bytes",
	"Flight.send":           "xlupc_net_messages_total",
	"Flight.drop":           "xlupc_fault_drops_total",
	"Flight.corrupt":        "xlupc_fault_corrupts_total",
	"Flight.duplicate":      "xlupc_fault_dups_total",
	"Flight.delay":          "xlupc_fault_delays_total",
	"Flight.stall":          "xlupc_fault_stalls_total",
	"Flight.crash_drop":     "xlupc_crash_drops_total",
	"Flight.ack":            "xlupc_rel_acks_total",
	"Flight.retransmit":     "xlupc_rel_retransmits_total",
	"Flight.park":           "xlupc_crash_parked_retx_total",
	"Flight.dup_suppress":   "xlupc_rel_dup_suppressed_total",
	"Flight.corrupt_drop":   "xlupc_transport_corrupt_drops_total",
	"Flight.stale_nack":     "xlupc_crash_stale_nacks_total",
	"Flight.coalesce_flush": "xlupc_coalesce_frames_total",
	"Flight.pin_evict":      "xlupc_pin_evictions_total",
	"Flight.crash":          "xlupc_crash_nodes_total",
	"Flight.restart":        "xlupc_crash_recovered_total",
	"Flight.pin_park":       "xlupc_pin_parked_total",
	"Flight.pin_reuse":      "xlupc_pin_reuses_total",
	"RecoveryTime":          "xlupc_crash_recovery_seconds",
	"StaleInvalidated":      "xlupc_crash_stale_invalidated_total",
}

// notExported names the counters of RunStats no series carries, each
// with the reason.
var notExported = map[string]string{
	"KernelEvents":            "a cost of the simulator, not of the modelled machine",
	"OpStats.Gets":            "per-op spans export xlupc_ops_total and xlupc_op_latency",
	"OpStats.Puts":            "per-op spans export xlupc_ops_total and xlupc_op_latency",
	"OpStats.LocalGets":       "per-op spans export xlupc_ops_total and xlupc_op_latency",
	"OpStats.GetTime":         "per-op spans export xlupc_ops_total and xlupc_op_latency",
	"Flight.recv":             "physical arrivals: the export carries the injections (Flight.send) and the hazards between the two",
	"Flight.retry_fail":       "exported by class as xlupc_transport_failures_total, but a run that records one ends in a TransportError, so no golden configuration does",
	"Flight.pin_nack":         "a sum of families (the reason=\"nack\" fallbacks and PUT retries), checked against them by TestCoreSeries; no golden configuration NACKs on a deregistered region",
	"Flight.cache_invalidate": "one record per invalidation, whatever it dropped; xlupc_addrcache_invalidations_total counts the entries dropped",
	"Flight.atomic":           "NIC-executed atomics only; xlupc_atomic_ops_total and xlupc_atomic_remote_total count every remote atomic, AM path included",
}

// counterAt locates one counter of RunStats: its field, and for a
// flight kind's total the element.
type counterAt struct {
	field []int
	elem  int // -1: the field itself
}

func (c counterAt) value(st RunStats) reflect.Value {
	f := reflect.ValueOf(st).FieldByIndex(c.field)
	if c.elem >= 0 {
		f = f.Index(c.elem)
	}
	return f
}

// runStatsCounters returns the path of every integer field reachable
// from RunStats ("Cache.Hits", "PinStats.MaxLive") and of every flight
// kind's total, by the kind's name ("Flight.drop"), with its location.
func runStatsCounters() map[string]counterAt {
	out := map[string]counterAt{}
	totals := reflect.TypeOf(flight.Totals{})
	var walk func(t reflect.Type, prefix string, index []int)
	walk = func(t reflect.Type, prefix string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int(nil), index...), i)
			switch {
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, prefix+f.Name+".", idx)
			case f.Type.Kind() == reflect.Int, f.Type.Kind() == reflect.Int64:
				out[prefix+f.Name] = counterAt{idx, -1}
			case f.Type == totals:
				for k := 0; k < f.Type.Len(); k++ {
					out[prefix+f.Name+"."+flight.Kind(k).String()] = counterAt{idx, k}
				}
			default:
				panic("RunStats." + prefix + f.Name + ": not a counter")
			}
		}
	}
	walk(reflect.TypeOf(RunStats{}), "", nil)
	return out
}

// promValues sums a snapshot's counter and gauge lines per family, and
// keeps each family's largest single value.
func promValues(snap string) (sum, peak map[string]float64) {
	sum, peak = map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(snap, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		fam, _, _ := strings.Cut(series, "{")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			panic(line)
		}
		sum[fam] += v
		peak[fam] = max(peak[fam], v)
	}
	return sum, peak
}

// TestEveryCounterExported walks every counter reachable from RunStats:
// each must be exported by a family that the Prometheus golden records
// in at least one configuration, or be named in notExported. Where the
// family is present, its value must be the field's, so a counter cannot
// be dropped or mis-wired without this failing.
func TestEveryCounterExported(t *testing.T) {
	raw, err := os.ReadFile(promGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]promRow
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, row := range golden {
		for _, f := range row.Families {
			recorded[f] = true
		}
	}
	counters := runStatsCounters()
	for path := range counters {
		fam, exported := promSeries[path]
		_, skipped := notExported[path]
		switch {
		case exported && skipped:
			t.Errorf("%s: both exported as %s and listed in notExported", path, fam)
		case !exported && !skipped:
			t.Errorf("%s: exported by no series and not listed in notExported", path)
		case exported && !recorded[fam]:
			t.Errorf("%s: %s appears in no configuration of %s", path, fam, promGoldenFile)
		}
	}
	for path := range promSeries {
		if _, ok := counters[path]; !ok {
			t.Errorf("promSeries names %s, which RunStats does not have", path)
		}
	}
	for path := range notExported {
		if _, ok := counters[path]; !ok {
			t.Errorf("notExported names %s, which RunStats does not have", path)
		}
	}
	timeType := reflect.TypeOf(sim.Time(0))
	for _, pc := range promConfigs() {
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			st, snap := runProm(t, pc, prof)
			sum, peak := promValues(snap)
			for path, fam := range promSeries {
				got, ok := sum[fam]
				if !ok {
					continue // a gated block that this configuration leaves out
				}
				f := counters[path].value(st)
				want := float64(f.Int())
				switch {
				case f.Type() == timeType:
					want = sim.Time(f.Int()).Secs()
				case path == "PinStats.MaxLive":
					got = peak[fam]
				}
				if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Errorf("%s/%s: %s = %v, RunStats.%s = %v", pc.name, prof.Name, fam, got, path, want)
				}
			}
		}
	}
}
