// Multicore reproduces the paper's multi-core observation (section 6): when
// core 0 shares the L3 and memory bandwidth with cache-thrashing neighbours,
// L2 miss latency grows, the best offset grows with it, and the BO
// prefetcher's advantage over next-line widens — until bandwidth itself
// becomes the bottleneck at 4 active cores.
package main

import (
	"fmt"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

func main() {
	fmt.Println("470.lbm stand-in, 4MB pages; cores 1-3 run the cache thrasher")
	fmt.Printf("%-8s %12s %12s %10s %10s\n", "cores", "next-line", "BO", "speedup", "BO offset")
	for _, cores := range []int{1, 2, 4} {
		base := engine.DefaultOptions("470.lbm")
		base.Page = mem.Page4M
		base.Cores = cores
		base.Instructions = 300_000

		nl, err := engine.Run(base)
		if err != nil {
			panic(err)
		}

		boOpts := base
		boOpts.L2PF = prefetch.Spec{Name: "bo"}
		bo, err := engine.Run(boOpts)
		if err != nil {
			panic(err)
		}

		fmt.Printf("%-8d %12.3f %12.3f %10.3f %10d\n",
			cores, nl.IPC, bo.IPC, bo.IPC/nl.IPC, bo.FinalBOOffset)
	}
}
