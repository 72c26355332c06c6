package user

import (
	"testing"

	"surface/internal/lib"
)

func TestOther(t *testing.T) {
	var v lib.T
	if lib.OtherTest() != 2 || v.Probe() != 0 {
		t.Fatal("wrong")
	}
}
