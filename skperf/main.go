// Command skperf is the end-to-end benchmark of skserve. It builds a
// seeded corpus into a durable engine directory through the program's
// own build path, starts skserve on it as a separate process on a
// loopback port, drives it with closed-loop HTTP clients, checks every
// answer against its own brute-force oracle, and prints one JSON result
// line. With --trace 1 it instead replays a fixed prefix of the
// workload serially, in process and over HTTP, and reports per-layer
// metrics. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash skperf/run.sh --workload search|skql|rw --seed N --seconds S --trace 0|1
//	bash skperf/run.sh spread --workload search --runs 10 [--seconds S] [--trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	skserve  string // the skserve binary
	work     string // scratch directory for data, logs and traces
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "skperf spread:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "search, skql or rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the requests")
	flag.IntVar(&cfg.seconds, "seconds", 12, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: serial traced run reporting per-layer metrics")
	flag.StringVar(&cfg.skserve, "skserve", ".bench_build/skserve", "skserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for data, server logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		removeData(cfg.work)
		os.Exit(1)
	}()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// removeData removes this process's data directories; it runs when the
// benchmark is interrupted or terminated. Its servers die with it (see
// startServer).
func removeData(work string) {
	dirs, _ := filepath.Glob(filepath.Join(work, "data", fmt.Sprintf("*-%d-*", os.Getpid())))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func run(cfg config) (*report, error) {
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.skserve); err != nil {
		return nil, fmt.Errorf("skserve binary: %w", err)
	}
	for _, d := range []string{"data", "logs", "traces"} {
		if err := os.MkdirAll(filepath.Join(cfg.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		return traced(cfg)
	}
	return timed(cfg)
}
