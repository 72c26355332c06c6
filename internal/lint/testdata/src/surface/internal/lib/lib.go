// Package lib declares one exported name per case of the exported-surface
// rules; TestExportedSurfaceFixture pins the decision on each.
package lib

// OnlyOwnTest is named only by this package's own test: R1.
func OnlyOwnTest() int { return 1 }

// OtherTest is named only by another package's test: clean.
func OtherTest() int { return 2 }

// Local is called only inside this package: R2.
func Local() int { return len(Registry) }

// Registry is named by this package and by this directory's lib_test: clean.
var Registry = []string{"a"}

// BenchOnly is named only by the bench module: clean.
func BenchOnly() int { return 4 }

// Sizer is an interface the program names.
type Sizer interface{ Size() int }

// Total sums the sizes of ss.
func Total(ss ...Sizer) int {
	n := 0
	for _, s := range ss {
		n += s.Size()
	}
	return n
}

// T implements Sizer and fmt.Stringer.
type T struct{}

// Size is reached only through Sizer: clean.
func (T) Size() int { return Local() }

// String is reached only through fmt.Stringer: clean.
func (T) String() string { return "t" }

// Dead is named only by this package's own test: R1.
func (T) Dead() int { return 0 }

// Probe is named only by another package's test: clean.
func (T) Probe() int { return 0 }

// Own is called only by this package: R3.
func (T) Own() int { return 0 }

// Hidden is a type only this package names: R3.
type Hidden struct{ N int }

// Reached is named by no other package, but it is Make's result: clean.
type Reached struct{ N int }

// Make is called by another package: clean.
func Make() Reached {
	h := Hidden{N: Lone + ModeB}
	return Reached{N: h.N + T{}.Own()}
}

// Lone is a const only this package names: R3.
const Lone = 3

// The modes are an enumeration.
const (
	// ModeA is named by another package: clean.
	ModeA = iota
	// ModeB is named only by this package, in ModeA's block: clean.
	ModeB
)

// E is an error wrapping nothing.
type E struct{}

// Error is reached only through error: clean.
func (E) Error() string { return "e" }

// Unwrap is reached only through errors.Unwrap's interface: clean.
func (E) Unwrap() error { return nil }
