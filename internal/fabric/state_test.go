package fabric

import (
	"strings"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// queuedFlow returns a polled Bernoulli flow at port 0 that has generated
// through cycle last with nothing admitted, and its source queue.
func queuedFlow(t *testing.T, last noc.Cycle) (traffic.Flow, []noc.Packet) {
	t.Helper()
	spec := noc.FlowSpec{Src: 0, Dst: 2, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 4}
	f := traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(new(traffic.Sequence), spec, 0.4, 7)}
	s := NewSources(1)
	s.DisableEventDriven()
	s.Add(f, 0)
	for now := noc.Cycle(0); now <= last; now++ {
		s.Generate(now)
	}
	var queue []noc.Packet
	for k := range s.Flow(0).Queued() {
		queue = append(queue, *s.Flow(0).q.at(k))
	}
	if len(queue) < 3 {
		t.Fatalf("%d packets queued by cycle %d", len(queue), last)
	}
	return f, queue
}

// restoreQueue writes a live, polled flow slot holding queue, as
// AppendFlowState would, and restores it into a fresh set whose clock
// says whether it has generated and when last.
func restoreQueue(f traffic.Flow, generated bool, last noc.Cycle, queue []noc.Packet) error {
	arm := uint64(armPolled)
	if !generated {
		arm = armNone
	}
	b := wire.Uint(wire.Uint(nil, slotLive), arm)
	b = wire.Int(b, len(queue))
	for i := range queue {
		b = AppendPacket(b, &queue[i])
	}
	s := NewSources(1)
	s.DisableEventDriven()
	s.RestoreClock(generated, last)
	return s.RestoreFlow(wire.NewReader(b), 0, 0, PacketBounds{Ports: 4, MaxLen: 8},
		func() (traffic.Flow, error) { return f, nil })
}

// TestRestoreFlowRefusesImpossibleQueues: a source queue holds packets
// its set generated and admission has not touched. A blob whose queued
// packet was stamped, enqueued, granted, delivered, retried or held, was
// created after the set's clock or before its first Generate, or stands
// behind a packet with a higher ID is refused; the queue as generated
// restores.
func TestRestoreFlowRefusesImpossibleQueues(t *testing.T) {
	const last = 99
	f, queue := queuedFlow(t, last)
	if err := restoreQueue(f, true, last, queue); err != nil {
		t.Fatalf("the queue as generated: %v", err)
	}
	// A packet created on the set's last cycle is the newest possible.
	atClock := append([]noc.Packet(nil), queue...)
	atClock[len(atClock)-1].CreatedAt = last
	if err := restoreQueue(f, true, last, atClock); err != nil {
		t.Fatalf("a packet created at the set's clock: %v", err)
	}
	if err := restoreQueue(f, false, 0, nil); err != nil {
		t.Fatalf("an empty queue in a set that has not generated: %v", err)
	}

	for _, tc := range []struct {
		name  string
		edit  func(q []noc.Packet)
		clock bool
		want  string
	}{
		{"stamp", func(q []noc.Packet) { q[1].Stamp = 5 }, true, "admitted"},
		{"enqueued", func(q []noc.Packet) { q[1].EnqueuedAt = 40 }, true, "admitted"},
		{"granted", func(q []noc.Packet) { q[1].GrantedAt = 41 }, true, "admitted"},
		{"delivered", func(q []noc.Packet) { q[1].DeliveredAt = 45 }, true, "admitted"},
		{"retries", func(q []noc.Packet) { q[1].Retries = 1 }, true, "admitted"},
		{"hold", func(q []noc.Packet) { q[1].HoldUntil = 1 << 40 }, true, "admitted"},
		{"created after the clock", func(q []noc.Packet) { q[len(q)-1].CreatedAt = last + 1 }, true, "after the set's last cycle"},
		{"not generated", func([]noc.Packet) {}, false, "has not generated"},
		{"repeated ID", func(q []noc.Packet) { q[2].ID = q[1].ID }, true, "stands behind"},
		{"descending ID", func(q []noc.Packet) { q[1].ID, q[2].ID = q[2].ID, q[1].ID }, true, "stands behind"},
	} {
		q := append([]noc.Packet(nil), queue...)
		tc.edit(q)
		err := restoreQueue(f, tc.clock, last, q)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
