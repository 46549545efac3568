package placement

import (
	"sync"

	"repro/internal/cluster"
)

// Strategy decides which providers hold each page of a write. The
// default (no Strategy) places every key on its ring-preferred owners;
// an explicit strategy is an ablation arm and assumes a fixed fleet — it
// bypasses dynamic membership.
type Strategy interface {
	// Place returns, for each page key, a replica set of `replication`
	// distinct provider nodes. client is the writing node.
	Place(client cluster.NodeID, keys []string, replication int) [][]cluster.NodeID
}

// LocalFirst mimics HDFS's placement inside BlobSeer for the ablation
// experiment: the primary replica of every page is the writer's own
// node when it hosts a provider; further replicas follow the cursor. A
// writer that hosts no provider stripes its pages round-robin.
type LocalFirst struct {
	mu        sync.Mutex
	providers []cluster.NodeID
	isProv    map[cluster.NodeID]bool
	cursor    int
}

// NewLocalFirst builds the strategy over a provider fleet.
func NewLocalFirst(providers []cluster.NodeID) *LocalFirst {
	m := make(map[cluster.NodeID]bool, len(providers))
	for _, p := range providers {
		m[p] = true
	}
	return &LocalFirst{providers: providers, isProv: m}
}

// Place implements Strategy.
func (l *LocalFirst) Place(client cluster.NodeID, keys []string, replication int) [][]cluster.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]cluster.NodeID, len(keys))
	for i := range out {
		set := make([]cluster.NodeID, 0, replication)
		seen := make(map[cluster.NodeID]bool, replication)
		if l.isProv[client] {
			set = append(set, client)
			seen[client] = true
		}
		for j := 0; len(set) < replication && j < len(l.providers); j++ {
			cand := l.providers[(l.cursor+j)%len(l.providers)]
			if seen[cand] {
				continue
			}
			seen[cand] = true
			set = append(set, cand)
		}
		l.cursor = (l.cursor + 1) % len(l.providers)
		out[i] = set
	}
	return out
}
