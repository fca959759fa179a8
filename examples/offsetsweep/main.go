// Offsetsweep reproduces a slice of the paper's Figure 8: it sweeps fixed
// prefetch offsets on the 433.milc stand-in (whose speedup peaks at
// multiples of 32) and renders an ASCII profile with the Best-Offset
// prefetcher's speedup as a reference line.
package main

import (
	"fmt"
	"strings"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

func run(pf prefetch.Spec) engine.Result {
	o := engine.DefaultOptions("433.milc")
	o.Page = mem.Page4M
	o.Instructions = 250_000
	o.L2PF = pf
	r, err := engine.Run(o)
	if err != nil {
		panic(err)
	}
	return r
}

func main() {
	baseline := run(prefetch.Spec{Name: "nextline"})
	bo := run(prefetch.Spec{Name: "bo"})
	boSpeedup := bo.IPC / baseline.IPC

	fmt.Printf("433.milc stand-in, 4MB pages, 1 core (speedup vs next-line)\n")
	fmt.Printf("BO prefetcher: %.3f (learned offset %d)\n\n", boSpeedup, bo.FinalBOOffset)

	for d := 2; d <= 128; d += 2 {
		r := run(prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d)))
		speedup := r.IPC / baseline.IPC
		bar := int((speedup - 0.90) * 100)
		if bar < 0 {
			bar = 0
		}
		marker := " "
		if d%32 == 0 {
			marker = "*" // the paper's peaks: multiples of 32
		}
		fmt.Printf("D=%3d %s %5.3f %s\n", d, marker, speedup, strings.Repeat("#", bar))
	}
	fmt.Println("\n(*) offsets that are multiples of 32, where Figure 8 peaks")
}
