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
	save := flag.String("save", "", "also write the table as JSON to this path (§6: compute once, reuse)")
	load := flag.String("load", "", "load a previously saved table instead of recomputing")
	flag.Parse()

	prm, err := model.MachineByName(*machine)
	if err != nil {
		fatal(err)
	}

	opt := optimize.New(prm)
	var tbl optimize.Table
	if *load != "" {
		tbl, err = optimize.LoadTableFile(*load, prm)
	} else {
		var cube *topology.Hypercube
		if cube, err = topology.New(*d); err == nil {
			tbl, err = opt.BuildTableOnCtx(context.Background(), cube, *lo, *hi, *step)
		}
	}
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		if err := optimize.SaveTableFile(*save, tbl, prm); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hull: table saved to %s\n", *save)
	}
	// The table names its topology and its range, whether just built or
	// loaded: a loaded one ignores -d/-lo/-hi/-step.
	net, err := topology.ParseSpec(tbl.Topo)
	if err != nil {
		fatal(err)
	}
	tblLo, tblHi, _ := tbl.Bounds()
	out := report.NewTable(
		fmt.Sprintf("hull of optimality: d=%d, machine=%s, blocks %d..%d", tbl.D, *machine, tblLo, tblHi),
		"block range (B)", "partition", "time at range start (µs)")
	for _, seg := range tbl.Segments {
		c, err := opt.BestOn(net, seg.MinBlock)
		if err != nil {
			fatal(err)
		}
		out.AddRowStrings(
			fmt.Sprintf("%d..%d", seg.MinBlock, seg.MaxBlock),
			seg.Part.String(),
			report.FormatMicros(c.TimeMicro))
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
