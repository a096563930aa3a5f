package hw

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
)

// Fleet is a set of nodes realized across the shards of a sim.Cluster.
// Each node is its own fluid.Network — intra-node links form one
// connected component, so per-node networks give each shard an
// independent scope for settlement and progressive filling (an event
// settles one node's flows, not the fleet's).
// Nodes never share fluid links; inter-node interaction goes through
// sim.(*Simulator).Post on the owning shards.
type Fleet struct {
	Cluster *sim.Cluster
	Nodes   []*Node
	// Shards[i] is the shard node i was placed on.
	Shards []int
}

// BuildFleet realizes one node per spec across the cluster's shards.
// Placement honors Spec.ShardHint (1-based; 0 = no preference) modulo the
// shard count, defaulting to round-robin by node index, so any hint set
// is valid for any cluster size. Link names are prefixed "node<i>/" and
// each node's network is labeled with its spec name and shard.
func BuildFleet(c *sim.Cluster, specs []*Spec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("hw: BuildFleet needs at least one spec")
	}
	f := &Fleet{Cluster: c}
	for i, sp := range specs {
		shard := i % c.Shards()
		if sp.ShardHint > 0 {
			shard = (sp.ShardHint - 1) % c.Shards()
		}
		net := fluid.NewNetwork(c.Shard(shard))
		net.SetLabel(fmt.Sprintf("node%d:%s@shard%d", i, sp.Name, shard))
		node, err := BuildInto(net, sp, fmt.Sprintf("node%d/", i))
		if err != nil {
			return nil, fmt.Errorf("hw: BuildFleet node %d (%s): %w", i, sp.Name, err)
		}
		f.Nodes = append(f.Nodes, node)
		f.Shards = append(f.Shards, shard)
	}
	return f, nil
}

// Node returns the i-th node.
func (f *Fleet) Node(i int) *Node { return f.Nodes[i] }

// ShardOf returns the shard the i-th node was placed on.
func (f *Fleet) ShardOf(i int) int { return f.Shards[i] }

// Sim returns the simulator that drives the i-th node (its shard's
// event queue). All interaction with a node's flows — starting, waiting,
// inspecting — must happen from callbacks or processes of this shard.
func (f *Fleet) Sim(i int) *sim.Simulator { return f.Cluster.Shard(f.Shards[i]) }
