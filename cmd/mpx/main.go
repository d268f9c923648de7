// Command mpx runs a single multiphase complete exchange on the simulated
// circuit-switched hypercube and reports predicted vs simulated time.
// Every run executes on the unified fabric, which moves real payloads
// (the complete-exchange postcondition is machine-checked) while the
// discrete-event simulator prices the schedule in virtual time.
//
// Usage:
//
//	mpx -d 7 -m 40                 # auto-tuned partition
//	mpx -d 7 -m 40 -D "{3,4}"      # explicit partition
//	mpx -d 6 -m 24 -machine hypo   # the paper's hypothetical machine
//	mpx -d 5 -m 16 -runtime        # additionally time the goroutine backend
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	d := flag.Int("d", 6, "hypercube dimension (n = 2^d nodes)")
	m := flag.Int("m", 40, "block size in bytes per destination")
	part := flag.String("D", "", "explicit partition, e.g. \"{3,4}\" (default: auto-tune)")
	machine := flag.String("machine", "ipsc860",
		"machine model: "+strings.Join(model.MachineNames(), " | "))
	onRuntime := flag.Bool("runtime", false, "additionally execute the plan on the goroutine runtime fabric and report wall time")
	gantt := flag.Bool("gantt", false, "render a per-node timeline of the simulated run")
	ganttWidth := flag.Int("gantt-width", 100, "timeline width in characters")
	traceOut := flag.String("trace-out", "", "write the simulated timeline as Chrome trace_event JSON to this file (opens in chrome://tracing or Perfetto)")
	flag.Parse()

	prm, err := model.MachineByName(*machine)
	if err != nil {
		fatal(err)
	}
	sys, err := core.NewSystem(*d, prm)
	if err != nil {
		fatal(err)
	}

	var res core.Result
	if *part != "" {
		D, err := partition.Parse(*part)
		if err != nil {
			fatal(err)
		}
		res, err = sys.ExchangeWith(*m, D)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err = sys.CompleteExchange(*m)
		if err != nil {
			fatal(err)
		}
	}

	t := report.NewTable(
		fmt.Sprintf("complete exchange: d=%d (%d nodes), block=%dB, machine=%s",
			*d, sys.Nodes(), *m, *machine),
		"quantity", "value")
	t.AddRowStrings("partition", res.Partition.String())
	t.AddRow("predicted (µs)", res.PredictedMicros)
	t.AddRow("simulated (µs)", res.SimulatedMicros)
	t.AddRow("contention stall (µs)", res.ContentionStall)
	t.AddRowStrings("data verified", fmt.Sprintf("%v", res.DataVerified))
	if *onRuntime {
		plan, err := sys.Plan(*m, res.Partition)
		if err != nil {
			fatal(err)
		}
		fab, err := fabric.NewRuntime(plan.Nodes())
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if err := plan.RunOn(fab, 2*time.Minute); err != nil {
			fatal(fmt.Errorf("runtime execution failed: %w", err))
		}
		t.AddRow("goroutine wall time (µs)", float64(time.Since(start))/float64(time.Microsecond))
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}

	if *gantt || *traceOut != "" {
		plan, err := sys.Plan(*m, res.Partition)
		if err != nil {
			fatal(err)
		}
		cube, err := topology.New(*d)
		if err != nil {
			fatal(err)
		}
		net := simnet.New(cube, prm)
		net.SetTrace(true)
		traced, err := plan.Simulate(net)
		if err != nil {
			fatal(err)
		}
		if *gantt {
			fmt.Println()
			fmt.Print(trace.Summary(traced))
			fmt.Print(trace.Gantt(traced, *ganttWidth))
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteChrome(f, traced); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d timeline events to %s\n", len(traced.Timeline), *traceOut)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpx:", err)
	os.Exit(1)
}
