// Package user is the program's non-test use of lib.
package user

import "surface/internal/lib"

// Use names lib's live surface.
func Use() (int, error) {
	return lib.Total(lib.T{}) + lib.Make().N + lib.ModeA, lib.E{}
}
