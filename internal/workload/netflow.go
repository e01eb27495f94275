package workload

import (
	"time"

	"streamapprox/internal/stream"
	"streamapprox/internal/xrand"
)

// NetFlow synthesizes the network-traffic case-study dataset (§6.2). The
// paper used 670 GB of CAIDA 2015 backbone traces converted to NetFlow:
// 115,472,322 TCP, 67,098,852 UDP and 2,801,002 ICMP flow records, with
// the query "total size of TCP/UDP/ICMP traffic per sliding window". The
// synthetic generator reproduces what the query is sensitive to:
//
//   - the protocol mix (62.3% TCP / 36.2% UDP / 1.5% ICMP), making ICMP a
//     rare stratum that SRS under-represents;
//   - heavy-tailed flow sizes (log-normal body parameterized per
//     protocol: TCP flows are larger and more variable than UDP; ICMP
//     flows are small and regular).
//
// Stratum = protocol, Value = flow size in bytes.

// Protocol mix of the CAIDA-derived dataset, normalized; ICMP takes the
// remaining 1.5%.
const (
	netflowTCPShare = 0.6230
	netflowUDPShare = 0.3620
)

// netflowDist returns the per-protocol flow-size distribution. The
// parameters give medians of ≈4 KB (TCP), ≈300 B (UDP) and ≈84 B (ICMP)
// with realistic heavy upper tails for TCP.
func netflowDist(protocol string) Distribution {
	switch protocol {
	case "tcp":
		return LogNormal{Mu: 8.3, Sigma: 1.8}
	case "udp":
		return LogNormal{Mu: 5.7, Sigma: 1.1}
	default: // icmp
		return LogNormal{Mu: 4.43, Sigma: 0.3}
	}
}

// NetFlowEvents generates n synthetic flow records spread uniformly over
// duration, with the CAIDA protocol mix.
func NetFlowEvents(rng *xrand.Rand, n int, duration time.Duration) []stream.Event {
	if n <= 0 {
		return nil
	}
	gap := duration / time.Duration(n)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	tcp, udp, icmp := netflowDist("tcp"), netflowDist("udp"), netflowDist("icmp")
	out := make([]stream.Event, n)
	for i := range out {
		u := rng.Float64()
		var proto string
		var dist Distribution
		switch {
		case u < netflowTCPShare:
			proto, dist = "tcp", tcp
		case u < netflowTCPShare+netflowUDPShare:
			proto, dist = "udp", udp
		default:
			proto, dist = "icmp", icmp
		}
		out[i] = stream.Event{
			Stratum: proto,
			Value:   dist.Sample(rng),
			Time:    Epoch.Add(time.Duration(i) * gap),
		}
	}
	return out
}
