package lib

import "testing"

func TestOwn(t *testing.T) {
	if OnlyOwnTest() != 1 || (T{}).Dead() != 0 {
		t.Fatal("wrong")
	}
}
