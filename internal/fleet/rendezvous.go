package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Rendezvous (highest-random-weight) hashing decides which replica owns a
// routing key. Each (replica name, key) pair gets a pseudo-random score;
// the replicas ranked by score form the key's preference order — attempt 1
// goes to the top, failover walks down the list. The properties the fleet
// needs all fall out:
//
//   - Affinity: the same key always prefers the same replica, so its warm
//     runcache entry (memory tier, not just the shared spill dir) is hit.
//   - Minimal disruption: when a replica dies, only ITS keys move — every
//     other key's top choice is unchanged, unlike modulo hashing where one
//     departure reshuffles nearly everything.
//   - Deterministic failover: a key's second choice is as stable as its
//     first, so retries during an outage pile onto one designated backup
//     (which then warms up) rather than spraying the fleet.
//
// Scores come from the first 8 bytes of sha256(name, key) — overkill
// strength-wise, but the simulator already paid for SHA-256 everywhere
// else (runcache keys, quarantine identities) and a routing decision is
// ~100ns against a multi-millisecond analysis.

// rendezvousScore ranks one replica for one key.
func rendezvousScore(name, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// rank orders members for a key: healthy replicas by descending rendezvous
// score, then unhealthy ones in the same score order. Down replicas stay in
// the list — when the whole fleet looks down (a probe blackout, or the
// supervisor mid-restart-storm) the router still tries them rather than
// refusing outright, each at most once per request.
func rank(members []*member, key string) []*member {
	type scored struct {
		m     *member
		score uint64
	}
	up := make([]scored, 0, len(members))
	down := make([]scored, 0, len(members))
	for _, m := range members {
		s := scored{m: m, score: rendezvousScore(m.name, key)}
		if m.up.Load() {
			up = append(up, s)
		} else {
			down = append(down, s)
		}
	}
	byScore := func(s []scored) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].score != s[j].score {
				return s[i].score > s[j].score
			}
			return s[i].m.name < s[j].m.name
		})
	}
	byScore(up)
	byScore(down)
	out := make([]*member, 0, len(members))
	for _, s := range up {
		out = append(out, s.m)
	}
	for _, s := range down {
		out = append(out, s.m)
	}
	return out
}
