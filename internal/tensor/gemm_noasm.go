//go:build !amd64

package tensor

import "unsafe"

// tileKernel runs one packed micro-tile update of any kernel kind (see the
// amd64 shim); without assembly every kind runs in Go at its geometry.
func tileKernel(kind uint8, depth int, a, b, c unsafe.Pointer, ldc int, store bool) {
	portableTile(kind, depth, a, b, c, ldc, store)
}
