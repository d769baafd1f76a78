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
