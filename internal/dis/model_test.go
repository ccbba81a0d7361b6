package dis

import (
	"encoding/binary"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// A modelCase is one run a stressmark is compared with its model on.
type modelCase struct {
	name string
	cfg  core.Config
	p    Params
}

// modelCases are the runs a stressmark is compared with its plain-Go
// model on: GM and LAPI with the cache off and on, and a salted run.
var modelCases = []modelCase{
	{"gm/nocache", core.Config{Profile: transport.GM(), Cache: core.NoCache()}, Params{}},
	{"gm/default", core.Config{Profile: transport.GM(), Cache: core.DefaultCache()}, Params{}},
	{"lapi/nocache", core.Config{Profile: transport.LAPI(), Cache: core.NoCache()}, Params{}},
	{"lapi/default", core.Config{Profile: transport.LAPI(), Cache: core.DefaultCache()}, Params{}},
	{"gm/default/salted", core.Config{Profile: transport.GM(), Cache: core.DefaultCache()}, Params{Salt: 5}},
}

// modelThreads and modelNodes size every run a model is compared with.
const modelThreads, modelNodes = 16, 4

// runReadBack runs a stressmark on modelThreads threads over modelNodes
// nodes and returns its checksum and the image of its shared array, one
// block per thread: each thread copies its own block out of node memory
// when the mark calls done, after the last barrier, so nothing writes
// the array after. start is the mark's start… seam, returning the
// thread's state; the array is in it once allocated.
func runReadBack(t *testing.T, cfg core.Config, p Params, start func(*core.Thread, Params, func(uint64)) *mark) ([]byte, uint64) {
	t.Helper()
	cfg.Threads, cfg.Nodes, cfg.Seed = modelThreads, modelNodes, 1
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var image []byte
	_, check, err := Run(rt, func(th *core.Thread, p Params, done func(uint64)) {
		var m *mark
		m = start(th, p, func(c uint64) {
			l := m.a.Layout()
			blk := int(l.Block) * l.ElemSize
			lo := int64(th.ID()) * l.Block
			if image == nil {
				image = make([]byte, int(l.NumElems)*l.ElemSize)
			}
			copy(image[th.ID()*blk:], th.Local(m.a.At(lo), blk))
			done(c)
		})
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	return image, check
}

// pointerModel is Pointer without the machine: the array the fill
// writes (nothing writes it after) as little-endian words, and the
// run's checksum, every thread's chase followed through the array in
// plain Go.
func pointerModel(threads int, p Params) ([]byte, uint64) {
	salted := func(x uint64) uint64 { return sim.SplitMix64(x ^ p.Salt*0x9E3779B9) }
	n := uint64(threads * pointerPerThread)
	a := make([]uint64, n)
	for i := range a {
		a[i] = salted(uint64(i)^0xF00D) % n
	}
	sums := make([]uint64, threads)
	for th := range sums {
		pos := salted(uint64(th)^0xBEEF) % n
		for hop := 0; hop < pointerHops; hop++ {
			next := a[pos]
			sums[th] ^= next + uint64(hop)
			pos = next
		}
	}
	image := make([]byte, 8*n)
	for i, v := range a {
		binary.LittleEndian.PutUint64(image[8*i:], v)
	}
	return image, Checksum(sums)
}

// TestPointerMatchesModel runs Pointer and compares the checksum and
// the array in node memory when the run ends with pointerModel's, byte
// for byte.
func TestPointerMatchesModel(t *testing.T) {
	for _, c := range modelCases {
		t.Run(c.name, func(t *testing.T) {
			want, wantCheck := pointerModel(modelThreads, c.p)
			image, check := runReadBack(t, c.cfg, c.p, func(th *core.Thread, p Params, done func(uint64)) *mark {
				return &startPointer(th, p, done).mark
			})
			if check != wantCheck {
				t.Errorf("checksum %x, model %x", check, wantCheck)
			}
			compareImage(t, image, want, pointerPerThread*8)
		})
	}
}

// updateModel is Update without the machine: the array the fill writes
// as little-endian words, updated by thread 0's walk, and the run's
// checksum, thread 0's reads followed through the array in plain Go.
func updateModel(threads int, p Params) ([]byte, uint64) {
	salted := func(x uint64) uint64 { return sim.SplitMix64(x ^ p.Salt*0x9E3779B9) }
	n := uint64(threads * updatePerThread)
	a := make([]uint64, n)
	for i := range a {
		a[i] = salted(uint64(i)^0xCAFE) % n
	}
	sums := make([]uint64, threads)
	pos := salted(0x5EED) % n
	for hop := 0; hop < updateHopsBase+updateHopsPerThread*threads; hop++ {
		var next uint64
		for r := uint64(0); r < updateReads; r++ {
			v := a[(pos+97*r)%n]
			sums[0] ^= v + r
			if r == 0 {
				next = v
			}
		}
		a[pos] = next
		pos = next
	}
	image := make([]byte, 8*n)
	for i, v := range a {
		binary.LittleEndian.PutUint64(image[8*i:], v)
	}
	return image, Checksum(sums)
}

// TestUpdateMatchesModel runs Update and compares the checksum and the
// array in node memory when the run ends with updateModel's, byte for
// byte.
func TestUpdateMatchesModel(t *testing.T) {
	for _, c := range modelCases {
		t.Run(c.name, func(t *testing.T) {
			want, wantCheck := updateModel(modelThreads, c.p)
			image, check := runReadBack(t, c.cfg, c.p, func(th *core.Thread, p Params, done func(uint64)) *mark {
				return &startUpdate(th, p, done).mark
			})
			if check != wantCheck {
				t.Errorf("checksum %x, model %x", check, wantCheck)
			}
			compareImage(t, image, want, updatePerThread*8)
		})
	}
}

// neighborhoodModel is Neighborhood without the machine: the pixel
// matrix the fill writes (nothing writes it after), and the run's
// checksum, every thread's samples read from the matrix in plain Go.
// The vertical partner of a sample in the last band's bottom rows wraps
// to thread 0's band.
func neighborhoodModel(threads int, p Params) ([]byte, uint64) {
	const rowsPer, cols, dist = neighborhoodRowsPer, neighborhoodCols, neighborhoodDist
	rows := rowsPer * threads
	px := make([]byte, rows*cols)
	for k := range px {
		px[k] = byte(sim.SplitMix64(uint64(k) ^ p.Salt*0x9E3779B9))
	}
	at := func(r, c int) uint64 { return uint64(px[r%rows*cols+c%cols]) }
	sums := make([]uint64, threads)
	for th := range sums {
		for s := 0; s < neighborhoodSamples; s++ {
			r := th*rowsPer + s*131%rowsPer
			c := (s*197 + th*13) % cols
			sums[th] += 3*at(r, c) + 5*at(r+dist, c) + 7*at(r, c+dist)
		}
	}
	return px, Checksum(sums)
}

// TestNeighborhoodMatchesModel runs Neighborhood and compares the
// checksum and the matrix in node memory when the run ends with
// neighborhoodModel's, byte for byte.
func TestNeighborhoodMatchesModel(t *testing.T) {
	for _, c := range modelCases {
		t.Run(c.name, func(t *testing.T) {
			want, wantCheck := neighborhoodModel(modelThreads, c.p)
			image, check := runReadBack(t, c.cfg, c.p, func(th *core.Thread, p Params, done func(uint64)) *mark {
				return &startNeighborhood(th, p, done).mark
			})
			if check != wantCheck {
				t.Errorf("checksum %x, model %x", check, wantCheck)
			}
			compareImage(t, image, want, neighborhoodRowsPer*neighborhoodCols)
		})
	}
}

// compareImage fails at the first byte where a run's array image
// differs from the model's, naming the thread whose block of blk bytes
// holds it.
func compareImage(t *testing.T, image, want []byte, blk int) {
	t.Helper()
	if len(image) != len(want) {
		t.Fatalf("array of %d bytes, model %d", len(image), len(want))
	}
	for i := range want {
		if image[i] != want[i] {
			t.Fatalf("array byte %d (thread %d) = %#x, model %#x", i, i/blk, image[i], want[i])
		}
	}
}
