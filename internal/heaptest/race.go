//go:build race

package heaptest

func init() { raceDetector = true }
