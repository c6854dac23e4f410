//go:build !amd64 || purego

package tensor

// matMulPanels leaves every column to the portable loop.
func matMulPanels(dst, a, b *Matrix, lo, hi int) int { return 0 }
