package main

import (
	"encoding/json"
	"strings"
	"testing"

	"swizzleqos"
)

// FuzzScenarioParse throws arbitrary JSON at the scenario parser, the
// builder and swizzleqos.New; they must reject garbage with errors,
// never panic.
func FuzzScenarioParse(f *testing.F) {
	f.Add(exampleScenario)
	f.Add(`{"radix": 2, "workloads": []}`)
	f.Add(`{"radix": -1}`)
	f.Add(`{"radix": 8, "workloads": [{"src": 0, "dst": 1, "class": "GB", "rate": 2.0, "packetLength": 0, "inject": {"kind": "trace", "times": [3,1]}}]}`)
	f.Add(glWithoutBurst)
	f.Fuzz(func(t *testing.T, raw string) {
		var sc scenario
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sc); err != nil {
			return
		}
		// Clamp pathological sizes so the fuzzer exercises validation,
		// not memory exhaustion.
		if sc.Radix > 128 || len(sc.Workloads) > 64 {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("build or New panicked on %q: %v", raw, r)
			}
		}()
		cfg, ws, err := sc.build()
		if err != nil {
			return
		}
		_, _ = swizzleqos.New(cfg, ws...)
	})
}
