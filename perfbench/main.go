// Command perfbench is the repository benchmark. It runs one workload in
// one process as a closed loop of real FL rounds against the program built
// through its public constructors, prints every end-to-end metric by name
// and unit (or, with -trace 1, every per-layer metric), and checks the
// committed model against a reference fold of the generated updates.
//
//	go run . -workload fedavg-cohort -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// the run fails or the reference check does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: update contents, weights and device IDs")
	seconds := flag.Int("seconds", 20, "length of each measured window")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this file")
	list := flag.Bool("list", false, "print the workload names and exit")
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	fmt.Println(hostBlock(*seed))
	fmt.Printf("workload %s K=%d dim=%d secure=%v shards=%d seconds=%d trace=%d\n",
		w.name, w.k, w.dim(), w.secure, w.shards, *seconds, *trace)
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.findings {
		fmt.Println(f)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.check.ok(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !m.extra {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Printf("finding.folded_unanswered %d reports folded into a commit although the device got an Abort or no answer\n", res.check.folded)
	fmt.Printf("finding.acked_dropped %d acked reports left out of %d of %d commits (failed secure aggregation groups)\n",
		res.check.dropped, res.check.droppedRounds, res.check.rounds)
	if res.check.ok() {
		fmt.Printf("check ok: %d committed rounds match the reference fold (final model max |diff| %.3g, tolerance %.3g)\n",
			res.check.rounds, res.check.maxDiff, res.check.tol)
	} else {
		for _, p := range res.check.problems {
			fmt.Println("check FAILED:", p)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.check.ok() || res.attempted == 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
