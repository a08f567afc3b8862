//go:build !amd64

package tensor

// gemmKernel runs one packed 6×16 micro-tile update on platforms without an
// assembly kernel.
func gemmKernel(kc int, a, b, ctile []float32, ldc int, store bool) {
	gemmKernelGeneric(kc, a, b, ctile, ldc, store)
}

// gemmKernelTier dispatches by tier kind; without assembly both kinds run
// the portable kernel at the tier's geometry.
func gemmKernelTier(kind uint8, kc int, a, b, ctile []float32, ldc int, store bool) {
	if kind == tierKind8x32 {
		gemmKernelGeneric8x32(kc, a, b, ctile, ldc, store)
		return
	}
	gemmKernelGeneric(kc, a, b, ctile, ldc, store)
}
