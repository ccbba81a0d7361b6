package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// promSeriesValues parses a snapshot's counter and gauge lines into a
// map from series (`name{labels}`, or bare name) to value.
func promSeriesValues(snap string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(snap, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[series] = v
		}
	}
	return out
}

// nackWorkload churns a pin budget of one chunk: thread 0 warms its
// cache for four arrays, then GETs, PUTs, FetchAdds and NbGets through
// entries whose registrations later arrays evicted (NACKs), and moves
// a transfer larger than the budget (a refused rendezvous pin).
func nackWorkload(th *Thread) {
	var as []*SharedArray
	for i := 0; i < 4; i++ {
		as = append(as, th.AllAlloc(fmt.Sprintf("A%d", i), 32, 8, 8))
	}
	big := th.AllAlloc("Big", 16384, 8, 4096)
	th.Barrier()
	if th.ID() == 0 {
		for round := 0; round < 2; round++ {
			for _, a := range as {
				th.GetUint64(a.At(17))
			}
			for i, a := range as {
				th.PutUint64(a.At(17), uint64(i))
			}
			for _, a := range as {
				th.FetchAdd(a.At(17), 1)
			}
			dst := make([]byte, 8)
			for _, a := range as {
				th.NbGet(dst, a.At(17))
			}
			th.SyncAll()
		}
		buf := make([]byte, 20<<10)
		th.GetBulk(buf, big.At(2*4096))
		th.PutBulk(big.At(2*4096), buf)
	}
	th.Barrier()
}

// nackSnapshots is the sha256 of nackWorkload's Prometheus snapshot,
// recorded while core wrote its per-operation series (fallbacks, PUT
// retries, stale recoveries, atomic ops) live during the run. The
// Prometheus golden reaches only their stale-epoch and atomic series;
// this workload reaches every one.
var nackSnapshots = map[string]string{
	"gm/nack":         "41d7caacafd8213987dffa57dc37188524760bcd4b3a97505a686ec0a9169cdb",
	"gm/nack+crash":   "f21573a8c29764d5101dacd3ed2f8ff5041a5e944fbb8e23b9305d6a0fbd21ab",
	"lapi/nack":       "c4c32c802bc0a061ab7130b0d813a7b3416c4c32caa5e184fa08e462e5297762",
	"lapi/nack+crash": "e240cb67dd702c2ef7dd7eed6ddc1a13c40292c7af00ca8b3fe5fad3a78f9d14",
}

// TestCoreSeries checks core's per-operation series, which the export
// renders when the run has ended: the NACK workload's snapshots must
// equal those recorded when the series were written live, and on every
// configuration of the Prometheus matrix and the NACK workload, on GM
// and LAPI, the series must agree with the flight record — plain
// fallbacks and PUT retries with its pin NACKs, stale-epoch ones with
// its stale NACKs — and the atomics issued with OpStats.AtomicOps.
func TestCoreSeries(t *testing.T) {
	type run struct {
		name string
		cfg  Config
		body func(*Thread)
	}
	var runs []run
	for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
		for _, pc := range promConfigs() {
			p := prof()
			c := cfg(8, 4, p, DefaultCache())
			pc.tune(&c)
			runs = append(runs, run{p.Name + "/" + pc.name, c, promWorkload(pc.atomics)})
		}
		for _, crash := range []bool{false, true} {
			p := prof()
			c := cfg(4, 2, p, DefaultCache())
			c.Cache.PutMode = PutCacheOn
			c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(NewLayout(4, 2, 8, 8, 32).NodeChunkBytes()) + 1}
			name := p.Name + "/nack"
			if crash {
				c.Crash = crashCfg(p).Crash
				name += "+crash"
			}
			runs = append(runs, run{name, c, nackWorkload})
		}
	}
	for _, r := range runs {
		tel := telemetry.New()
		r.cfg.Telemetry = tel
		rt, err := NewRuntime(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Run(r.body)
		if err != nil {
			t.Fatal(err)
		}
		snap := tel.Snapshot()
		if want, ok := nackSnapshots[r.name]; ok {
			if sum := sha256.Sum256([]byte(snap)); hex.EncodeToString(sum[:]) != want {
				t.Errorf("%s: snapshot moved:\n%s", r.name, snap)
			}
		}
		var plain, stale, atomics float64
		for series, v := range promSeriesValues(snap) {
			switch {
			case strings.HasSuffix(series, `_fallbacks_total{reason="nack"}`),
				series == `xlupc_put_retries_total{reason="nack"}`:
				plain += v
			case strings.HasSuffix(series, `_fallbacks_total{reason="stale_epoch"}`),
				series == `xlupc_put_retries_total{reason="stale_epoch"}`:
				stale += v
			case strings.HasPrefix(series, "xlupc_atomic_ops_total{"):
				atomics += v
			}
		}
		fr := rt.FlightRecorder()
		if want := fr.OfClass(flight.KindPinNack, flight.ClassDMA); plain != float64(want) {
			t.Errorf("%s: plain NACK fallbacks and retries = %v, pin NACKs recorded = %d", r.name, plain, want)
		}
		if want := fr.OfClass(flight.KindStaleNack, flight.ClassDMA); stale != float64(want) {
			t.Errorf("%s: stale-epoch fallbacks and retries = %v, stale NACKs recorded = %d", r.name, stale, want)
		}
		if atomics != float64(st.AtomicOps) {
			t.Errorf("%s: xlupc_atomic_ops_total sums to %v, OpStats.AtomicOps = %d", r.name, atomics, st.AtomicOps)
		}
	}
}
