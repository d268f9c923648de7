package topology

import "fmt"

// The four walks Degraded answered its derived facts with before they
// became one pass (derive): one traversal per fact, each over
// d.Neighbors. They are kept here, loop for loop, as the oracle the pass
// is compared against; only the sync.Once wrappers and the large-fabric
// fallbacks are gone — an oracle is exact at every size.

func oracleTotalLinks(d *Degraded) int {
	if d.Healthy() {
		return d.base.TotalLinks()
	}
	seen := make(map[int]bool)
	for p := 0; p < d.base.Nodes(); p++ {
		if !d.NodeAlive(p) {
			continue
		}
		for _, q := range d.base.Neighbors(p) {
			if d.LinkAlive(p, q) {
				seen[d.base.LinkSlot(p, q)] = true
			}
		}
	}
	return len(seen)
}

func oracleDiameter(d *Degraded) int {
	if d.Healthy() {
		return d.base.Diameter()
	}
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

func oracleAveragePathLength(d *Degraded) float64 {
	if d.Healthy() {
		return d.base.AveragePathLength()
	}
	apl := 0.0
	n := d.base.Nodes()
	total, pairs := 0.0, 0
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
					queue = append(queue, q)
				}
			}
		}
		for t := 0; t < n; t++ {
			if t != s && dist[t] > 0 {
				total += float64(dist[t])
				pairs++
			}
		}
	}
	if pairs > 0 {
		apl = total / float64(pairs)
	}
	return apl
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
