package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
)

// spreadMain runs one workload --runs times with seeds first, first+1,
// ... as separate processes of this binary, reads each run's result
// line, and prints every metric's median, quartiles and the
// interquartile range as a share of the median (the figure compared
// with a metric's bound).
func spreadMain(args []string) error {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	workload := fs.String("workload", "", "search, skql or rw")
	runs := fs.Int("runs", 10, "number of runs")
	first := fs.Int64("first-seed", 1, "seed of the first run")
	seconds := fs.Int("seconds", 12, "timed window of each run")
	trace := fs.Int("trace", 0, "pass --trace 1 to the runs")
	skserve := fs.String("skserve", ".bench_build/skserve", "skserve binary")
	work := fs.String("work", ".bench_build", "directory for data, server logs and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := *first + int64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace),
			"--skserve", *skserve, "--work", *work)
		cmd.Stderr = os.Stderr
		// A run ends, and cleans up, when spread does.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		rep, err := lastReport(out)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, rep.Correct, rep.Attempted, rep.Failed)
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %-6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		rel := 0.0
		if q2 != 0 {
			rel = (q3 - q1) / q2
		}
		fmt.Printf("%-36s %-6s %12.5g %12.5g %12.5g %8.4f\n", name, units[name], q1, q2, q3, rel)
	}
	return nil
}

// lastReport parses the result line: the last line of a run's output.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}

// quartiles returns the quartiles as Python's statistics.quantiles(xs,
// n=4) computes them (the "exclusive" method), with the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
