package lib_test

import (
	"testing"

	"surface/internal/lib"
)

func TestRegistry(t *testing.T) {
	if len(lib.Registry) != 1 {
		t.Fatal("wrong")
	}
}
