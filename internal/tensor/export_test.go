package tensor

// ExpKernels reports whether GELU and ExpShiftSum run on the four-lane
// kernels, for the external tests.
func ExpKernels() bool { return useExpKernels }
