package cpu

func init() { AVX2 = detectAVX2() }

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// detectAVX2 follows the sequence Intel's SDM gives for AVX2 (§14.7.1):
// CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit 28); XCR0 must enable
// both the SSE (bit 1) and the AVX (bit 2) register state, or the
// operating system does not save the upper YMM halves; CPUID.(7,0):EBX
// bit 5 then reports AVX2.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
