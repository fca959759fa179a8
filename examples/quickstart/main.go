// Quickstart: run one memory-bound workload with the baseline next-line L2
// prefetcher and with the Best-Offset prefetcher, and print the speedup and
// the offset BO learned. This is the smallest end-to-end use of the
// simulator API.
package main

import (
	"fmt"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

func main() {
	base := engine.DefaultOptions("462.libquantum")
	base.Page = mem.Page4M
	base.Instructions = 400_000

	nextLine, err := engine.Run(base)
	if err != nil {
		panic(err)
	}

	boOpts := base
	boOpts.L2PF = prefetch.Spec{Name: "bo"}
	bo, err := engine.Run(boOpts)
	if err != nil {
		panic(err)
	}

	config := experiments.CoreConfig{Cores: base.Cores, Page: base.Page}.Label()
	fmt.Printf("workload: %s (%s)\n", base.WorkloadLabel(), config)
	fmt.Printf("next-line prefetcher: IPC %.3f\n", nextLine.IPC)
	fmt.Printf("Best-Offset:          IPC %.3f (learned offset %d)\n", bo.IPC, bo.FinalBOOffset)
	fmt.Printf("speedup:              %.3f\n", bo.IPC/nextLine.IPC)
	fmt.Printf("\nBO learning: %d phases, %d RR insertions, prefetch off in %d phases\n",
		bo.BO.Phases, bo.BO.RRInsertions, bo.BO.PhasesOff)
}
