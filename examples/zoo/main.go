// Zoo demonstrates the prefetcher registry: it lists every registered L2
// prefetcher with its spec name, then runs each of them — by spec alone,
// never naming a concrete type — on one memory-bound workload and prints
// the speedup over the next-line baseline. A prefetcher registered from a
// new package (like internal/multi) appears here automatically; see
// internal/prefetch/all.
package main

import (
	"fmt"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

func main() {
	fmt.Println("registered L2 prefetchers:")
	for _, name := range prefetch.L2Names() {
		fmt.Printf("  %-10s %s\n", name, prefetch.L2Help(name))
	}
	fmt.Println("\nregistered DL1 prefetchers:")
	for _, name := range prefetch.L1Names() {
		fmt.Printf("  %-10s %s\n", name, prefetch.L1Help(name))
	}

	base := engine.DefaultOptions("462.libquantum")
	base.Page = mem.Page4M
	base.Instructions = 250_000
	baseline, err := engine.Run(base)
	if err != nil {
		panic(err)
	}

	config := experiments.CoreConfig{Cores: base.Cores, Page: base.Page}.Label()
	fmt.Printf("\n%s, %s, speedup vs next-line:\n", base.WorkloadLabel(), config)
	for _, name := range prefetch.L2Names() {
		o := base
		o.L2PF = prefetch.Spec{Name: name}
		r, err := engine.Run(o)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-10s IPC %6.3f  speedup %5.3f\n", name, r.IPC, r.IPC/baseline.IPC)
	}

	// Parameterized variants are one spec string away.
	for _, spec := range []string{"offset:d=4", "bo:badscore=5", "multi:offsets=1+2+4+8"} {
		o := base
		o.L2PF = prefetch.MustSpec(spec)
		r, err := engine.Run(o)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-22s IPC %6.3f  speedup %5.3f\n", spec, r.IPC, r.IPC/baseline.IPC)
	}
}
