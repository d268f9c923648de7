// Command hull computes the hull of optimality for a hypercube dimension:
// the best multiphase partition for every block size in a sweep (paper §8,
// the summary read off Figures 4–6).
//
// Usage:
//
//	hull -d 7                 # 0..400 bytes on the iPSC-860 model
//	hull -d 6 -lo 0 -hi 1000 -step 8
//	hull -d 10 -csv           # CSV output for plotting
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/report"
	"repro/internal/topology"
)

func main() {
	d := flag.Int("d", 7, "hypercube dimension")
	lo := flag.Int("lo", 0, "sweep start, bytes")
	hi := flag.Int("hi", 400, "sweep end, bytes")
	step := flag.Int("step", 4, "sweep step, bytes")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	machine := flag.String("machine", "ipsc860",
		"machine model: "+strings.Join(model.MachineNames(), " | "))
	flag.Parse()

	prm, err := model.MachineByName(*machine)
	if err != nil {
		fatal(err)
	}
	cube, err := topology.New(*d)
	if err != nil {
		fatal(err)
	}
	tbl, err := optimize.New(prm).BuildTableOnCtx(context.Background(), cube, *lo, *hi, *step)
	if err != nil {
		fatal(err)
	}
	tblLo, tblHi, _ := tbl.Bounds()
	out := report.NewTable(
		fmt.Sprintf("hull of optimality: d=%d, machine=%s, blocks %d..%d", tbl.D, *machine, tblLo, tblHi),
		"block range (B)", "partition", "time at range start (µs)")
	// Each row is priced from the table's own grouping, as a served plan
	// is: no second enumeration.
	for _, seg := range tbl.Segments {
		t, _, err := prm.MultiphaseOn(cube, seg.MinBlock, seg.Part)
		if err != nil {
			fatal(err)
		}
		out.AddRowStrings(
			fmt.Sprintf("%d..%d", seg.MinBlock, seg.MaxBlock),
			seg.Part.String(),
			report.FormatMicros(t))
	}
	var werr error
	if *csv {
		werr = out.WriteCSV(os.Stdout)
	} else {
		werr = out.Write(os.Stdout)
	}
	if werr != nil {
		fatal(werr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hull:", err)
	os.Exit(1)
}
