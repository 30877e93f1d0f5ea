package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// savedRun is one run's standard output, parsed.
type savedRun struct {
	file        string
	workload    string
	trace       bool
	fingerprint string
	result      result
}

// benchFile is the part of BENCHMARK.json the comparison reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares the runs saved in two directories (each file is
// one run's standard output) metric by metric, per workload, against
// the bounds in BENCHMARK.json. It refuses, with exit code 2, to
// compare runs whose environment fingerprints differ; it exits 1 when
// a metric got worse by more than its bound.
func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fl.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: kvbench compare [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	var bf benchFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench compare:", err)
		return 2
	}
	base, err1 := loadRuns(fl.Arg(0))
	next, err2 := loadRuns(fl.Arg(1))
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench compare:", err)
		return 2
	}
	// Runs of one workload are comparable only from one environment.
	// The fingerprint includes the fsync policy, which differs between
	// workloads, so the check is per workload.
	all := append(slices.Clone(base), next...)
	first := map[string]savedRun{}
	for _, r := range all {
		f, ok := first[r.workload]
		if !ok {
			first[r.workload] = r
			continue
		}
		if r.fingerprint != f.fingerprint {
			fmt.Fprintf(os.Stderr, "kvbench compare: refusing to compare runs from different environments:\n  %s: %s\n  %s: %s\n",
				f.file, f.fingerprint, r.file, r.fingerprint)
			return 2
		}
	}
	worse := false
	workloads := map[string]bool{}
	for _, r := range all {
		if !r.trace {
			workloads[r.workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %8s %8s  %s\n", "workload", "metric", "base_median", "new_median", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			b := values(base, wl, m.Name)
			n := values(next, wl, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			bq, nq := quartiles(b), quartiles(n)
			change := ratio(nq[1]-bq[1], bq[1])
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			beatsAll := n[len(n)-1] < b[0]
			if m.Better == "higher" {
				beatsAll = n[0] > b[len(b)-1]
			}
			switch {
			case change > m.Bound:
				verdict = "WORSE"
				worse = true
			case ratio(bq[2]-bq[0], bq[1]) > m.Bound && !beatsAll:
				verdict = "unresolved (base spread above bound)"
			case beatsAll:
				verdict = "better in every run"
			}
			fmt.Fprintf(w, "%-12s %-20s %12.5g %12.5g %+7.1f%% %7.1f%%  %s\n", wl, m.Name, bq[1], nq[1], 100*change, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// values returns the sorted values of one metric over a set's untraced
// runs of one workload.
func values(runs []savedRun, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok && r.workload == workload && !r.trace {
			out = append(out, m.Value)
		}
	}
	slices.Sort(out)
	return out
}

// quartiles returns Q1, median and Q3 of sorted values with the
// exclusive method of Python's statistics.quantiles(n=4).
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	if n == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// loadRuns parses every regular file in dir as one run's output.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, err := parseRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no saved runs", dir)
	}
	return runs, nil
}

func parseRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	r := savedRun{file: path}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "run "):
			for _, kv := range strings.Fields(line)[1:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "trace":
					r.trace = v == "1"
				}
			}
		case strings.HasPrefix(line, "fingerprint "):
			r.fingerprint = strings.TrimPrefix(line, "fingerprint ")
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if r.workload == "" || r.fingerprint == "" {
		return r, errors.New("no run or fingerprint line")
	}
	if err := json.Unmarshal([]byte(last), &r.result); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}
