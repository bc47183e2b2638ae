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
func TestAVX2MatchesProcCPUInfo(t *testing.T) { matchProcCPUInfo(t, "avx2", AVX2) }

// TestFMAMatchesProcCPUInfo does the same for fma, which Linux lists only
// when the processor has FMA3 and the YMM state is saved.
func TestFMAMatchesProcCPUInfo(t *testing.T) { matchProcCPUInfo(t, "fma", FMA) }

func matchProcCPUInfo(t *testing.T, flag string, got bool) {
	if runtime.GOARCH != "amd64" {
		if got {
			t.Fatalf("%s = true on %s", flag, runtime.GOARCH)
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
			want = want || f == flag
		}
		if got != want {
			t.Fatalf("detected %s = %v, /proc/cpuinfo lists it: %v", flag, got, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
