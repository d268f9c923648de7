package topology

import "fmt"

// The walks Degraded answered its derived facts with before they became
// one pass (derive): one traversal per fact, each over d.Neighbors. The
// two facts it still derives, the diameter and connectivity, keep theirs
// here, loop for loop, as the oracle the pass is compared against; only
// the sync.Once wrappers and the large-fabric fallback are gone — an
// oracle is exact at every size.

func oracleDiameter(d *Degraded) int {
	diam := 0
	n := d.base.Nodes()
	dist := make([]int32, n)
	var queue []int
	for s := 0; s < n; s++ {
		if !d.NodeAlive(s) {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, q := range d.Neighbors(p) {
				if dist[q] == -1 {
					dist[q] = dist[p] + 1
					if int(dist[q]) > diam {
						diam = int(dist[q])
					}
					queue = append(queue, q)
				}
			}
		}
	}
	return diam
}

func oracleConnected(d *Degraded) error {
	n := d.base.Nodes()
	live, first := 0, -1
	for p := 0; p < n; p++ {
		if d.NodeAlive(p) {
			live++
			if first < 0 {
				first = p
			}
		}
	}
	if live <= 1 {
		return nil
	}
	seen := make([]bool, n)
	seen[first] = true
	reached := 1
	queue := []int{first}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range d.Neighbors(p) {
			if !seen[q] {
				seen[q] = true
				reached++
				queue = append(queue, q)
			}
		}
	}
	if reached != live {
		return fmt.Errorf("topology: %s: %d of %d live nodes unreachable: %w",
			d.name, live-reached, live, ErrUnroutable)
	}
	return nil
}
