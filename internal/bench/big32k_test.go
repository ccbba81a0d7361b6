package bench

import (
	"os"
	"testing"
)

func TestBig32kManual(t *testing.T) {
	if os.Getenv("XLUPC_BIG32K") == "" {
		t.Skip("manual")
	}
	if _, err := (Sweep{Seed: 1}).PrintScale(os.Stderr, BigScale()); err != nil {
		t.Fatal(err)
	}
}
