package simnet

// CyclicWindows returns how many of src's phase windows the certificates
// on n's fabric handle find keeping the cyclic promise: the windows a
// replay on n runs on the cyclic interpreter.
func CyclicWindows(n *Network, src Phased) int {
	count, winLo := 0, 1
	for _, sp := range src.PhaseSpans() {
		if sp.Shape == ShapeCyclic {
			if cert, _ := n.certificate(src, sp, winLo); cert.cyclic {
				count++
			}
		}
		winLo += sp.Rows
	}
	return count
}

// Certify runs the certificate pass over the phase window of span sp
// opening at row winLo afresh, past the handle's cache, and returns what
// it proved.
func Certify(n *Network, src Phased, sp PhaseSpan, winLo int) (decline string, hops []int32, cyclic bool) {
	c := n.certify(src, sp, winLo)
	return c.decline, c.hops, c.cyclic
}
