package cluster

import (
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over shard IDs: each shard owns many
// virtual points on the 32-bit FNV-1a circle, and a key belongs to the
// shard owning the first point at or after the key's hash. Adding or
// removing one shard therefore remaps only the keys whose arc changed
// owner (~1/N of them), which is what keeps a shard join or leave from
// resharding every client's session at once.
//
// The ring is immutable once built, so the routing hot path reads it
// without locks.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint32
	shard int
}

// defaultReplicas is the virtual-node count per shard. 128 keeps the
// load split across shards within a few percent of even for the shard
// counts this package targets (single digits to low tens) at a cost of
// a few kilobytes per ring.
const defaultReplicas = 128

// newRing builds a ring over the given shard IDs with replicas virtual
// nodes each (<=0 selects defaultReplicas). An empty shard list yields
// an empty ring; owner reports false on it.
func newRing(shards []int, replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &ring{points: make([]ringPoint, 0, len(shards)*replicas)}
	for _, id := range shards {
		base := "shard-" + strconv.Itoa(id) + "#"
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(base + strconv.Itoa(v)),
				shard: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between virtual nodes are broken by shard ID so
		// ring construction stays deterministic regardless of input order.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owner returns the shard owning key, walking clockwise from the key's
// hash; ok is false on an empty ring.
func (r *ring) owner(key string) (shard int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard, true
}

// ringHash positions a key on the circle: 32-bit FNV-1a mixed through
// the murmur3 finalizer. Raw FNV-1a is NOT usable here — it has weak
// avalanche, so sequential identities ("client-17", "client-18", or a
// rack of adjacent IPs) hash to a few narrow bands of the circle, and
// a joining shard's virtual nodes can miss every live client (observed:
// a 2→3 join remapping 0 of 20 sequential clients). The finalizer
// decorrelates similar keys; the paper's per-client state only needs
// the placement to be deterministic, not FNV specifically.
func ringHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
