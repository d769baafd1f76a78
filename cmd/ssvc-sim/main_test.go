package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos"
)

func TestExampleScenarioParsesAndBuilds(t *testing.T) {
	var sc scenario
	if err := json.Unmarshal([]byte(exampleScenario), &sc); err != nil {
		t.Fatalf("example scenario does not parse: %v", err)
	}
	cfg, ws, err := sc.build()
	if err != nil {
		t.Fatalf("example scenario does not build: %v", err)
	}
	if cfg.Radix != 8 || len(ws) != 5 {
		t.Fatalf("radix=%d workloads=%d, want 8/5", cfg.Radix, len(ws))
	}
	if ws[4].Spec.Class != swizzleqos.GuaranteedLatency {
		t.Fatalf("last workload class %v, want GL", ws[4].Spec.Class)
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(exampleScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// glWithoutBurst reserves a GL rate but leaves glBurst at 0, a GL
// bucket core refuses: ssvc-sim must exit 1 on it, not panic.
const glWithoutBurst = `{"radix": 8, "glRate": 0.05, "glPacketLength": 4, "workloads": [
  {"src": 0, "dst": 1, "class": "GB", "rate": 0.1, "packetLength": 8, "inject": {"kind": "backlogged", "depth": 1}}]}`

func TestRunRefusesGLWithoutBurst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(glWithoutBurst), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("run panicked: %v", r)
		}
	}()
	if err := run(path, ""); err == nil || !strings.Contains(err.Error(), "burst allowance") {
		t.Fatalf("run returned %v, want core's GL burst error", err)
	}
}

// A packet log that cannot be written fails the run: /dev/full refuses
// every write with ENOSPC, as a full disk does.
func TestRunPacketLogWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(exampleScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "/dev/full"); err == nil || !strings.Contains(err.Error(), "packet log") {
		t.Fatalf("run returned %v, want the packet log's write error", err)
	}
}

func TestRunRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(`{"radix": 8, "bogus": 1, "workloads": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, ""); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseClass(t *testing.T) {
	cases := map[string]swizzleqos.Class{
		"BE": swizzleqos.BestEffort,
		"":   swizzleqos.BestEffort,
		"gb": swizzleqos.GuaranteedBandwidth,
		"GL": swizzleqos.GuaranteedLatency,
	}
	for in, want := range cases {
		got, err := parseClass(in)
		if err != nil || got != want {
			t.Errorf("parseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseClass("XX"); err == nil {
		t.Error("parseClass accepted XX")
	}
}

func TestParseArbitrationAndPolicy(t *testing.T) {
	if a, err := parseArbitration("origvc"); err != nil || a != swizzleqos.OriginalVirtualClock {
		t.Errorf("parseArbitration(origvc) = %v, %v", a, err)
	}
	if _, err := parseArbitration("nope"); err == nil {
		t.Error("parseArbitration accepted nope")
	}
	if p, err := parsePolicy("halve"); err != nil || p != swizzleqos.Halve {
		t.Errorf("parsePolicy(halve) = %v, %v", p, err)
	}
	if _, err := parsePolicy("nope"); err == nil {
		t.Error("parsePolicy accepted nope")
	}
}

func TestInjectBuildErrors(t *testing.T) {
	if _, err := (inject{Kind: "warp"}).build(); err == nil {
		t.Error("unknown injection kind accepted")
	}
}

func TestRunWithPacketLog(t *testing.T) {
	dir := t.TempDir()
	scenarioPath := filepath.Join(dir, "scenario.json")
	logPath := filepath.Join(dir, "packets.jsonl")
	if err := os.WriteFile(scenarioPath, []byte(exampleScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(scenarioPath, logPath); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 100 {
		t.Fatalf("only %d packet records", len(lines))
	}
	var rec packetRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("first record does not parse: %v", err)
	}
	if rec.Delivered < rec.Enqueued || rec.Length == 0 || rec.Class == "" {
		t.Fatalf("malformed record: %+v", rec)
	}
}
