package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX2MatchesProcCPUInfo cross-checks the CPUID detection against the
// flags Linux reports, where /proc/cpuinfo exists: the kernel lists avx2
// only when the processor has it and it saves the YMM state.
func TestAVX2MatchesProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatalf("AVX2 = true on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := false
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx2"
		}
		if AVX2 != want {
			t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
