package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs every workload (or only the named one) n times, each in a
// fresh process with its own seed, and prints each end-to-end metric's
// median, quartiles and spread — the interquartile distance as a share of
// the median — next to the bound BENCHMARK.json gives it. A spread above a
// third of its bound is flagged: two sets of runs would then too often
// disagree by more than the bound. It returns a non-zero status when a run
// fails or reports an incorrect output.
func steadiness(spec *benchSpec, only string, seed int64, seconds, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		vals := map[string][]float64{}
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: run failed (%v)\n", w.Name, s, err)
				status = 1
				continue
			}
			for name, mv := range res.Metrics {
				vals[name] = append(vals[name], mv.Value)
			}
			fmt.Printf("%s seed %d: attempted %d failed %d %s\n", w.Name, s, res.Attempted, res.Failed, lines[len(lines)-1])
		}
		for _, m := range spec.EndToEnd {
			v := vals[m.Name]
			if len(v) < 2 {
				fmt.Printf("%-12s %-15s fewer than 2 runs\n", w.Name, m.Name)
				continue
			}
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			note := "ok"
			switch {
			case sp > m.Bound:
				note = "SPREAD ABOVE BOUND"
			case sp > m.Bound/3:
				note = "spread above bound/3"
			}
			fmt.Printf("%-12s %-15s median %11.4f  q1 %11.4f  q3 %11.4f  spread %.3f  bound %.2f  %s\n",
				w.Name, m.Name, q2, q1, q3, sp, m.Bound, note)
		}
	}
	return status
}
