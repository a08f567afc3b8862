package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runSelfcheck is the tool behind the repeatability criterion: it runs every
// workload n times in each of two sets, alternating A B B A …, each run a
// fresh process exactly as the accepting driver starts it, and prints per
// workload × end-to-end metric both medians, both spreads (inter-quartile
// range over median) and the two sets' disagreement against the metric's
// bound. It reports false when a spread or a disagreement breaches a bound
// (setup_s is held to its disagreement only, as the driver holds it) or a
// run fails.
func runSelfcheck(n int, cfg runConfig, varySeed bool) bool {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs at least 2 runs per set")
		return false
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return false
	}
	printEnv(os.Stdout, "# env ", envStamp())
	fmt.Printf("# selfcheck: %d runs per set, %d s each, seed %d, vary-seed %v\n", n, cfg.seconds, cfg.seed, varySeed)
	fmt.Printf("%-18s %-17s %12s %12s %8s %8s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "disagree", "bound", "verdict")
	pass := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := [4]int{0, 1, 1, 0}[i%4]
			seed := cfg.seed
			if varySeed {
				seed += int64(len(sets[set][endToEnd[0].Name]))
			}
			res, err := runChild(self, w.Name, seed, cfg.seconds)
			if err != nil {
				fmt.Printf("%-18s run %d (set %c): %v\n", w.Name, i, 'A'+set, err)
				pass = false
				continue
			}
			if !res.Correct {
				fmt.Printf("%-18s run %d (set %c): %d of %d operations failed\n", w.Name, i, 'A'+set, res.Failed, res.Attempted)
				pass = false
			}
			for _, m := range endToEnd {
				sets[set][m.Name] = append(sets[set][m.Name], res.Metrics[m.Name].Value)
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			sa, sb, dis := iqrShare(a), iqrShare(b), disagreement(a, b, m.higherIsBetter())
			verdict := "ok"
			if dis > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "BREACH"
				pass = false
			}
			fmt.Printf("%-18s %-17s %12.4f %12.4f %7.2f%% %7.2f%% %8.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(a), median(b), 100*sa, 100*sb, 100*dis, 100*m.Bound, verdict)
		}
	}
	if pass {
		fmt.Println("# selfcheck passed")
	} else {
		fmt.Println("# selfcheck FAILED")
	}
	return pass
}

// runChild runs one workload once in a child process and parses the result
// line, the last line of its output.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
