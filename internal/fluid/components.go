package fluid

import "fmt"

// Connected-component detection over the link graph.
//
// Links in this model are standalone resources — they couple only when a
// route traverses several of them, making their rate allocations
// interdependent (progressive filling is a fixpoint over every link a
// shared flow touches). Two links therefore belong to the same component
// exactly when a declared route connects them, directly or transitively.
// Within one Network, re-rating is already scoped to the dynamic
// component of the flows active at the time; settlement is not, so a
// Network's completion times depend on every change instant in it.
// Components are the unit of simulation for the sharded engine: each
// connected component gets its own Network (settled and re-rated
// independently), and only components may be placed on different cluster
// shards — a route can never span two Networks, so no rate computation
// ever crosses a shard boundary.

// SetLabel attaches a diagnostic label to the network (e.g. the node or
// shard it models in a fleet build). The label appears in error messages
// and observability output; it has no semantic effect.
func (n *Network) SetLabel(label string) { n.label = label }

// Label returns the network's diagnostic label ("" if unset).
func (n *Network) Label() string { return n.label }

// Components partitions the network's links into connected components
// under the given prospective routes: links appearing together in a
// route are merged, transitively. Links used by no route form singleton
// components. The result is deterministic — components are ordered by
// their earliest-created link, and links within a component appear in
// creation order — so a sharding decision derived from it is stable
// across runs.
//
// Routes referencing links of another network panic, same as StartFlow:
// coupling across networks is exactly what the component split exists to
// rule out.
func (n *Network) Components(routes ...[]*Link) [][]*Link {
	parent := make([]int, len(n.links))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra // root at the earliest-created link
	}
	for _, route := range routes {
		for i, l := range route {
			if l.net != n {
				panic(fmt.Sprintf("fluid: component route link %q belongs to a different network", l.name))
			}
			if i > 0 {
				union(route[0].idx, l.idx)
			}
		}
	}
	// Group links by root, preserving creation order in both dimensions:
	// roots are always the smallest idx of their component, so walking
	// links in creation order discovers components in that same order.
	groupOf := make(map[int]int, len(n.links))
	var out [][]*Link
	for i, l := range n.links {
		root := find(i)
		g, ok := groupOf[root]
		if !ok {
			g = len(out)
			groupOf[root] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], l)
	}
	return out
}
