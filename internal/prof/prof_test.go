package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestRegisterInstallsFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}); err != nil {
		t.Fatal(err)
	}
	if f.CPUProfile != "cpu.out" || f.MemProfile != "mem.out" {
		t.Fatalf("flags not bound: %+v", f)
	}
}

func TestZeroFlagsStartIsFree(t *testing.T) {
	var f Flags
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have something to say.
	sink := 0
	buf := make([]byte, 1<<16)
	for i := range buf {
		sink += int(buf[i]) + i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestStartFailsOnBadPath(t *testing.T) {
	f := Flags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start with an unwritable cpuprofile path did not fail")
	}
}
