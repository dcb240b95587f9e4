// ybench regenerates the paper's evaluation tables and figures (the
// experiments of internal/bench) against in-process clusters.
//
//	ybench -exp all
//	ybench -exp e2 -servers 1,2,4 -duration 3s
//	ybench -exp e3 -records 20000 -workers 32
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"yesquel/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e8) or 'all'")
	duration := flag.Duration("duration", 2*time.Second, "measurement duration per point")
	records := flag.Int("records", 10000, "dataset size")
	workers := flag.Int("workers", 16, "client goroutines (where applicable)")
	serversFlag := flag.String("servers", "1,2,4,8", "server counts for scaling experiments")
	flag.Parse()

	var servers []int
	for _, s := range strings.Split(*serversFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("ybench: bad -servers value %q", s)
		}
		servers = append(servers, n)
	}
	p := bench.Params{
		Duration: *duration,
		Records:  *records,
		Workers:  *workers,
		Servers:  servers,
	}

	ctx := context.Background()
	ran := false
	for _, e := range bench.All() {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		ran = true
		fmt.Fprintf(os.Stderr, "running %s: %s...\n", e.ID, e.Name)
		start := time.Now()
		table, err := e.Run(ctx, p)
		if err != nil {
			log.Fatalf("ybench %s: %v", e.ID, err)
		}
		fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(table.Render())
	}
	if !ran {
		log.Fatalf("ybench: unknown experiment %q (want e1..e8 or all)", *exp)
	}
}
