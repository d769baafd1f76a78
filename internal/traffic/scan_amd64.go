package traffic

// haveKernel is whether this CPU runs scan32: AVX-512F for the 64-bit
// lanes, the unsigned compares and the mask registers, AVX-512DQ for
// VPMULLQ, and an operating system that saves the opmask and ZMM
// registers. It is read once, at package init.
var haveKernel = avx512DQ()

func avx512DQ() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	// OSXSAVE: the OS has enabled XGETBV and says which state it saves.
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	const f, dq = 1 << 16, 1 << 17
	if _, ebx, _, _ := cpuid(7, 0); ebx&(f|dq) != f|dq {
		return false
	}
	// XCR0: SSE and AVX state, the opmask registers, the upper halves of
	// ZMM0-15 and ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return xgetbv()&zmmState == zmmState
}

// scan32 is failuresBefore for lim = o<<11, 32 draws an iteration
// (scan_amd64.s): the number of failed draws before the first output
// below lim, and the state that drew it. Its domain is failuresBefore's,
// o in [1, 2^53]; at 2^53 lim wraps to 0 and every draw succeeds.
func scan32(s, lim uint64) (n, state uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (xcr0 uint32)
