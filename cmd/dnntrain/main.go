// Command dnntrain runs the executable simulated cluster: it trains a
// small conv+FC network under a chosen parallelization strategy on the
// goroutine-based MPI runtime, reporting loss, simulated communication
// time, and words on the wire. With -verify it additionally trains every
// strategy and checks gradient-exactness against serial SGD (the
// executable realization of Figs. 1, 2, 3 and 5). Every strategy but
// serial is one engine, the Eq. 9 layer walk, on a grid under a per-layer
// assignment: batch runs every layer Model on a 1×P grid, model every
// layer Model on P×1, domain every layer Domain on P×1, and integrated
// (alias full) Domain convolutions and Model FC layers on the -pr × -pc
// grid. It is a thin adapter over
// internal/cli; a -config scenario supplies B, P, grid, and the machine.
//
// Usage:
//
//	dnntrain -verify
//	dnntrain -strategy batch -P 4 -steps 20
//	dnntrain -strategy domain -P 4 -steps 10
//	dnntrain -strategy full -pr 2 -pc 4 -steps 10
//	dnntrain -config examples/scenarios/alexnet-sim-8x64.json -strategy full -B 16 -pr 2 -pc 2
package main

import (
	"os"

	"dnnparallel/internal/cli"
)

func main() {
	os.Exit(cli.TrainMain(os.Args[1:], os.Stdout, os.Stderr))
}
