package collectives

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/bitutil"
	"repro/internal/exchange"
	"repro/internal/fabric"
	"repro/internal/simnet"
)

// payload returns the canonical test block "node src's contribution for
// destination dst" (dst = −1 for single-payload patterns).
func payload(src, dst, m int) []byte {
	out := make([]byte, m)
	for i := range out {
		out[i] = exchange.PayloadByte(src, dst+1, i)
	}
	return out
}

// RunOn executes the collective on the given fabric with canonical
// payloads and verifies the pattern's postcondition at every node: each
// block must arrive intact exactly where the collective says it belongs.
// The same call works on the runtime fabric (pure data check) and on the
// simulated fabric (data check plus virtual-time costing).
func RunOn(k Kind, fab fabric.Fabric, m, root int, timeout time.Duration) error {
	n := fab.N()
	d := bitutil.Log2Exact(n)
	if d < 0 {
		return fmt.Errorf("collectives: fabric size %d is not a power of two", n)
	}
	if err := checkRoot(root, n); err != nil {
		return err
	}
	if m < 0 {
		return fmt.Errorf("collectives: negative block size %d", m)
	}
	return fab.Run(func(nd fabric.Node) error {
		p := nd.ID()
		switch k {
		case Broadcast:
			var in []byte
			if p == root {
				in = payload(root, -1, m)
			}
			got, err := BroadcastOn(nd, root, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload(root, -1, m)) {
				return fmt.Errorf("collectives: node %d received wrong broadcast", p)
			}
		case Scatter:
			var blocks [][]byte
			if p == root {
				blocks = make([][]byte, n)
				for i := range blocks {
					blocks[i] = payload(root, i, m)
				}
			}
			got, err := ScatterOn(nd, root, blocks)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload(root, p, m)) {
				return fmt.Errorf("collectives: node %d got wrong scatter block", p)
			}
		case Gather:
			all, err := GatherOn(nd, root, payload(p, root, m))
			if err != nil {
				return err
			}
			if p == root {
				if len(all) != n {
					return fmt.Errorf("collectives: root holds %d blocks, want %d", len(all), n)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(all[i], payload(i, root, m)) {
						return fmt.Errorf("collectives: root got wrong block from %d", i)
					}
				}
			}
		case AllGather:
			all, err := AllGatherOn(nd, payload(p, -1, m))
			if err != nil {
				return err
			}
			for q := 0; q < n; q++ {
				if !bytes.Equal(all[q], payload(q, -1, m)) {
					return fmt.Errorf("collectives: node %d ended with wrong block from %d", p, q)
				}
			}
		default:
			return fmt.Errorf("collectives: unknown kind %v", k)
		}
		return nil
	}, timeout)
}

// Simulate runs the collective on a simulated fabric over the given
// network — moving and verifying real data and costing the schedule in
// virtual time — and returns the discrete-event result.
func Simulate(k Kind, net *simnet.Network, m, root int) (simnet.Result, error) {
	fab := fabric.NewSim(net)
	if err := RunOn(k, fab, m, root, fabric.DefaultSimTimeout); err != nil {
		return simnet.Result{}, err
	}
	return fab.Result()
}
