// Package icnt models the SM↔L2 interconnect as a set of
// bandwidth-limited injection ports with a fixed traversal latency — the
// usual crossbar abstraction for Fermi-class GPUs.
//
// Every SM owns a request-side port and every L2 partition owns a
// response-side port. A packet occupies its injection port for
// ceil(bytes/bytesPerCycle) cycles (serialization), then arrives
// latency cycles later. Control packets (read requests) are small;
// data packets (fills, store data) are line-sized, so the store and fill
// bandwidth of a port is finite and contended — which is what makes
// memory-intensive phases back-pressure the LD/ST units.
package icnt

import "repro/internal/timing"

// Network is the crossbar. Ports 0..numSM-1 are SM injection ports;
// ports numSM..numSM+parts-1 are partition injection ports.
type Network struct {
	wheel         *timing.Wheel
	latency       int64
	bytesPerCycle int
	portFree      []int64

	// Packets and Bytes count injected traffic.
	Packets int64
	Bytes   int64
}

// New builds a network with numSM SM-side and parts partition-side ports.
func New(wheel *timing.Wheel, numSM, parts int, latency int64, bytesPerCycle int) *Network {
	if numSM <= 0 || parts <= 0 || latency < 0 || bytesPerCycle <= 0 {
		panic("icnt: invalid geometry")
	}
	return &Network{
		wheel:         wheel,
		latency:       latency,
		bytesPerCycle: bytesPerCycle,
		portFree:      make([]int64, numSM+parts),
	}
}

// SMPort returns the injection-port id of SM sm.
func (n *Network) SMPort(sm int) int { return sm }

// PartPort returns the injection-port id of partition p, given numSM SMs.
func (n *Network) PartPort(numSM, p int) int { return numSM + p }

// Occupancy returns how many cycles ahead of now port's next free slot is
// — a congestion signal callers may use for back-pressure.
func (n *Network) Occupancy(port int) int64 {
	d := n.portFree[port] - n.wheel.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Send injects a packet of bytes at port, delivering deliver(cycle) after
// serialization plus traversal latency. Injection begins at the port's
// next free cycle (at least the next cycle). The returned cycle is when
// deliver will fire — observability callers (the flight recorder) use it
// to bound a packet's network leg; timing callers may ignore it.
func (n *Network) Send(port int, bytes int, deliver func(cycle int64)) (deliverAt int64) {
	now := n.wheel.Now()
	start := now + 1
	if n.portFree[port] > start {
		start = n.portFree[port]
	}
	ser := int64((bytes + n.bytesPerCycle - 1) / n.bytesPerCycle)
	if ser < 1 {
		ser = 1
	}
	n.portFree[port] = start + ser
	n.Packets++
	n.Bytes += int64(bytes)
	at := start + ser + n.latency
	n.wheel.Schedule(at, deliver)
	return at
}
