package core

import (
	"bytes"
	"reflect"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// TestLocalViewAliasesNodeMemory checks Thread.Local both ways: a
// PutBulk shows in the view, a store through the view shows to GetBulk
// (the thread's own and a remote thread's), and a Ref that is not one
// run on the caller's node panics.
func TestLocalViewAliasesNodeMemory(t *testing.T) {
	const blk = 256
	mustRun(t, cfg(4, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("v", 4*blk, 1, blk)
		lo := int64(th.ID()) * blk
		src := bytes.Repeat([]byte{byte(th.ID() + 1)}, blk)
		th.PutBulk(a.At(lo), src)
		v := th.Local(a.At(lo), blk)
		if !bytes.Equal(v, src) {
			t.Errorf("thread %d: the view does not show the PutBulk", th.ID())
		}
		v[7] = 0xe0 + byte(th.ID())
		got := make([]byte, blk)
		th.GetBulk(got, a.At(lo))
		if !bytes.Equal(got, v) {
			t.Errorf("thread %d: GetBulk does not see a store through the view", th.ID())
		}
		th.Barrier()
		peer := (th.ID() + 2) % 4 // the other node
		th.GetBulk(got, a.At(int64(peer)*blk))
		if got[0] != byte(peer+1) || got[7] != 0xe0+byte(peer) {
			t.Errorf("thread %d: remote GetBulk of thread %d's block read %#x %#x", th.ID(), peer, got[0], got[7])
		}
		for _, bad := range []struct {
			what string
			lo   int64
			n    int
		}{
			{"off-node", int64(peer) * blk, blk},
			{"two runs", 0, 2 * blk},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("thread %d: Local of an %s Ref did not panic", th.ID(), bad.what)
					}
				}()
				th.Local(a.At(bad.lo), bad.n)
			}()
		}
		th.Barrier()
	})
}

// TestLocalViewChargesAsPrivateBuffer checks that a GetBulkC and a
// PutBulkC between the view and its own bytes cost what they cost
// through a private buffer: the same statistics, virtual time and
// events included, and the same bytes.
func TestLocalViewChargesAsPrivateBuffer(t *testing.T) {
	const blk = 4096
	run := func(view bool) (RunStats, []byte) {
		rt, err := NewRuntime(cfg(4, 2, transport.GM(), DefaultCache()))
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		st, err := rt.RunCont(func(th *Thread, done func()) {
			th.AllAllocC("v", 4*blk, 1, blk, func(a *SharedArray) {
				r := a.At(int64(th.ID()) * blk)
				buf := make([]byte, blk)
				if view {
					buf = th.Local(r, blk)
				}
				for i := range buf {
					buf[i] = byte(i*7 + th.ID())
				}
				th.PutBulkC(r, buf, func() {
					th.BarrierC(func() {
						th.GetBulkC(buf, r, func() {
							if th.ID() != 0 {
								th.BarrierC(done)
								return
							}
							all = make([]byte, 4*blk)
							th.GetBulkC(all, a.At(0), func() { th.BarrierC(done) })
						})
					})
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, all
	}
	private, privData := run(false)
	view, viewData := run(true)
	if !reflect.DeepEqual(private, view) {
		t.Errorf("view run's statistics differ from the private buffer's:\n%+v\n%+v", view, private)
	}
	if !bytes.Equal(privData, viewData) {
		t.Error("view run's array differs from the private buffer's")
	}
	if private.LocalGets == 0 || private.Elapsed == 0 {
		t.Errorf("the runs did nothing: %+v", private)
	}
}

// TestLocalViewAfterRelocation checks the view across a crash restart,
// which relocates the node's chunks: what was stored through the view
// survives, the view stops aliasing node memory, and a GetBulk into it
// brings it up to date, as it would a private buffer.
func TestLocalViewAfterRelocation(t *testing.T) {
	const blk = 256
	c := cfg(2, 2, transport.GM(), DefaultCache())
	c.Crash = &CrashConfig{CrashConfig: fault.CrashConfig{
		Prob: 0.99, Every: 100 * sim.Us,
		RestartMin: 10 * sim.Us, RestartMax: 20 * sim.Us,
		Horizon: sim.Ms, MaxPerNode: 1,
	}}
	st := mustRun(t, c, func(th *Thread) {
		a := th.AllAlloc("v", 2*blk, 1, blk)
		r := a.At(int64(th.ID()) * blk)
		v := th.Local(r, blk)
		for i := range v {
			v[i] = byte(i)
		}
		th.Sleep(500 * sim.Us) // both nodes restart meanwhile
		got := make([]byte, blk)
		th.GetBulk(got, r)
		if !bytes.Equal(got, v) {
			t.Errorf("thread %d: stores through the view did not survive the relocation", th.ID())
		}
		v[0] = 0xff
		th.GetBulk(got, r)
		if got[0] != 0 {
			t.Errorf("thread %d: the view still aliases node memory after the relocation", th.ID())
		}
		th.PutBulk(r, bytes.Repeat([]byte{7}, blk))
		th.GetBulk(v, r)
		if v[0] != 7 || v[blk-1] != 7 {
			t.Errorf("thread %d: a GetBulk into the view did not update it", th.ID())
		}
	})
	if st.Flight[flight.KindCrash] != 2 {
		t.Fatalf("%d restarts, want one per node", st.Flight[flight.KindCrash])
	}
}
