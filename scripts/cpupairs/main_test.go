package main

import (
	"slices"
	"testing"
)

func TestParseCPUList(t *testing.T) {
	for _, c := range []struct {
		out  string
		want []int
	}{
		{"pid 7's current affinity list: 0,1\n", []int{0, 1}},
		{"pid 7's current affinity list: 2-4,7\n", []int{2, 3, 4, 7}},
		{"pid 7's current affinity list: 5\n", []int{5}},
	} {
		got, err := parseCPUList(c.out)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseCPUList(%q) = %v, %v; want %v", c.out, got, err, c.want)
		}
	}
	for _, bad := range []string{"list: ", "list: 3-1", "list: 0,x"} {
		if got, err := parseCPUList(bad); err == nil {
			t.Errorf("parseCPUList(%q) = %v, want an error", bad, got)
		}
	}
}

func TestRanKernel(t *testing.T) {
	k := kernel{name: "SwitchCycleSat/radix64", n: 1_600_000}
	for _, c := range []struct {
		out  string
		want bool
	}{
		// A pattern that matches no benchmark: PASS, exit 0, no result line.
		{"PASS\n", false},
		{"", false},
		{"BenchmarkSwitchCycleSat/radix64 \t 1600000\t 1529 ns/op\nPASS\n", true},
		{"goos: linux\nBenchmarkSwitchCycleSat/radix64-2 \t 1600000\t 1529 ns/op\t 0 allocs/op\nPASS\n", true},
		{"BenchmarkSwitchCycleSat/radix64/SSVC \t 1600000\t 1529 ns/op\n", true},
		// Another iteration count, or another kernel whose name extends k's.
		{"BenchmarkSwitchCycleSat/radix64 \t 10000\t 1529 ns/op\n", false},
		{"BenchmarkSwitchCycleSat/radix640 \t 1600000\t 1529 ns/op\n", false},
		{"BenchmarkSwitchCycleRecycled/radix64/SSVC \t 1600000\t 1643 ns/op\n", false},
	} {
		if got := ranKernel(k, c.out); got != c.want {
			t.Errorf("ranKernel(%q) = %v, want %v", c.out, got, c.want)
		}
	}
}
